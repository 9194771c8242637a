#!/usr/bin/env bash
# Fixture driver for the lemons-* clang-tidy checks.
#
#   run_fixture_tests.sh <plugin.so> <clang-tidy> <repo src dir> <fixtures dir>
#
# Every fixtures/**/t<code>_positive*.cc must produce at least one
# diagnostic from its check (carrying the matching T-code), and every
# t<code>_negative*.cc must produce none. A fixture that fails to
# compile fails the test outright — a silent check on broken code
# proves nothing. Exits 77 (ctest SKIP_RETURN_CODE) when the host has
# no clang-tidy or one too old to support -load (< 15).

set -u

plugin=${1:?plugin path}
clang_tidy=${2:-}
src_dir=${3:?repo src dir}
fixtures=${4:?fixtures dir}

if [[ -z "${clang_tidy}" || "${clang_tidy}" == *-NOTFOUND ]]; then
    echo "SKIP: no clang-tidy binary found" >&2
    exit 77
fi
if [[ ! -f "${plugin}" ]]; then
    echo "SKIP: plugin ${plugin} was not built" >&2
    exit 77
fi

# Capability probe: -load appeared in clang-tidy 15. An older binary
# rejects the flag before looking at the checks list.
if ! "${clang_tidy}" -load "${plugin}" -checks='-*,lemons-*' \
        --list-checks 2>/dev/null | grep -q 'lemons-no-raw-thread'; then
    echo "SKIP: ${clang_tidy} cannot load the lemons plugin" \
         "(needs clang-tidy >= 15)" >&2
    exit 77
fi

check_for() {
    case "$1" in
        t001) echo lemons-no-raw-thread ;;
        t002) echo lemons-deterministic-sim ;;
        t004) echo lemons-guarded-member ;;
        t005) echo lemons-obs-scoped-timer ;;
        t006) echo lemons-stats-accumulation ;;
        *) echo "" ;;
    esac
}

failures=0
ran=0

run_fixture() {
    local file=$1
    local base prefix check code expect output status
    base=$(basename "${file}")
    prefix=${base:0:4}
    check=$(check_for "${prefix}")
    if [[ -z "${check}" ]]; then
        echo "FAIL ${base}: unknown fixture prefix '${prefix}'" >&2
        failures=$((failures + 1))
        return
    fi
    code=T${prefix:1}
    if [[ "${base}" == *positive* ]]; then
        expect=positive
    elif [[ "${base}" == *negative* ]]; then
        expect=negative
    else
        echo "FAIL ${base}: name must contain 'positive' or 'negative'" >&2
        failures=$((failures + 1))
        return
    fi

    output=$("${clang_tidy}" -load "${plugin}" -checks="-*,${check}" \
        --quiet "${file}" -- -std=c++20 "-I${src_dir}" 2>&1)
    status=$?
    ran=$((ran + 1))

    if grep -q ' error: ' <<<"${output}"; then
        echo "FAIL ${base}: fixture does not compile" >&2
        echo "${output}" >&2
        failures=$((failures + 1))
        return
    fi

    local hits
    hits=$(grep -c "warning: .*\[${check}\]" <<<"${output}")
    if [[ "${expect}" == positive ]]; then
        if [[ "${hits}" -eq 0 ]]; then
            echo "FAIL ${base}: expected a [${check}] diagnostic," \
                 "got none (exit ${status})" >&2
            echo "${output}" >&2
            failures=$((failures + 1))
        elif ! grep -q "warning: ${code}:" <<<"${output}"; then
            echo "FAIL ${base}: diagnostic is missing the ${code}" \
                 "registry code" >&2
            echo "${output}" >&2
            failures=$((failures + 1))
        else
            echo "PASS ${base} (${hits} diagnostic(s))"
        fi
    else
        if [[ "${hits}" -ne 0 ]]; then
            echo "FAIL ${base}: expected silence, got:" >&2
            echo "${output}" >&2
            failures=$((failures + 1))
        else
            echo "PASS ${base} (silent)"
        fi
    fi
}

while IFS= read -r file; do
    run_fixture "${file}"
done < <(find "${fixtures}" -name '*.cc' | sort)

if [[ "${ran}" -eq 0 ]]; then
    echo "FAIL: no fixtures found under ${fixtures}" >&2
    exit 1
fi

echo "${ran} fixture(s), ${failures} failure(s)"
[[ "${failures}" -eq 0 ]]
