/**
 * @file
 * The single source of truth for every stable diagnostic code the
 * project emits, across all five families:
 *
 *   L-range  lemons::lint     design-rule findings (L001...)
 *   V-range  lemons::verify   static-verifier findings (V001...)
 *   C-range  lemons::fleet    checkpoint error codes (C101...)
 *   A-range  lemons::analysis wear-budget analyzer findings (A001...)
 *   T-range  lemons-tidy      source-level clang-tidy checks (T001...)
 *   S-range  lemons::api      serving/API request errors (S001...)
 *
 * The T-family is emitted by the out-of-tree clang-tidy plugin in
 * tools/tidy (loaded with `clang-tidy -load liblemons_tidy.so`); the
 * plugin includes this header so its diagnostics carry the same stable
 * ids the CLI catalogs and the suppression baseline matches on.
 *
 * Before this registry the L/V catalogs lived in one X-macro while the
 * fleet C-codes were raw string literals inside exception messages —
 * nothing stopped a new code from colliding across families. Every
 * family now draws from LEMONS_CODE_TABLE, and diagnostics.cc
 * static_asserts that the id strings are pairwise distinct, so a
 * collision is a compile error instead of an ambiguous CI grep.
 *
 * Row shape: X(enumerator, "id", DefaultSeverity, "one-line title").
 * The id string is deliberately explicit rather than #enumerator so
 * that the uniqueness check guards what tests and suppression lists
 * actually match on. Codes are append-only: a published code never
 * changes meaning and is never renumbered; add new rows at the end of
 * the table (grouping by family is cosmetic — --codes sorts).
 *
 * Retired codes, never to be reused: T003 (the tidy check that routed
 * src/core/ reliability math through the removed engine memo caches).
 */

#ifndef LEMONS_LINT_CODE_REGISTRY_H_
#define LEMONS_LINT_CODE_REGISTRY_H_

// clang-format off
#define LEMONS_CODE_TABLE(X)                                                 \
    X(L001, "L001", Error, "device alpha must be positive and finite")       \
    X(L002, "L002", Error, "device beta must be positive and finite")        \
    X(L003, "L003", Error, "legitimate access bound must be at least 1")     \
    X(L004, "L004", Error, "kFraction must lie in [0, 1)")                   \
    X(L005, "L005", Error, "minReliability must lie in (0, 1)")              \
    X(L006, "L006", Error, "maxResidualReliability must lie in (0, 1)")      \
    X(L007, "L007", Error, "degradation criteria inverted: residual "        \
                           "ceiling must stay below the reliability floor")  \
    X(L008, "L008", Error, "upper-bound target must exceed the LAB")         \
    X(L009, "L009", Error, "maxWidth must be at least 1")                    \
    X(L010, "L010", Warning, "attack budget reaches the passcode guess "     \
                             "space: wearout alone cannot stop brute force") \
    X(L011, "L011", Warning, "beta <= 1 gives no wearout knee: the "         \
                             "degradation window never closes sharply")      \
    X(L012, "L012", Warning, "alpha outside the plausible NEMS-contact "     \
                             "range")                                        \
    X(L013, "L013", Warning, "minReliability unreachable within maxWidth "   \
                             "even at one access per copy")                  \
    X(L101, "L101", Error, "share threshold k must be at least 1")           \
    X(L102, "L102", Error, "share threshold k must not exceed share "        \
                           "count n")                                        \
    X(L103, "L103", Error, "share count exceeds the field's share "          \
                           "capacity")                                       \
    X(L104, "L104", Warning, "k == n leaves no redundancy: one worn-out "    \
                             "share destroys the secret")                    \
    X(L105, "L105", Error, "unsupported share field width (use 8 or 16 "     \
                           "bits)")                                          \
    X(L201, "L201", Error, "structure width n must be at least 1")           \
    X(L202, "L202", Error, "parallel threshold k must satisfy 1 <= k <= n")  \
    X(L203, "L203", Error, "structure device alpha/beta must be positive")   \
    X(L204, "L204", Warning, "series chain length explosion (the paper "    \
                             "discards chaining for this reason)")           \
    X(L205, "L205", Warning, "parallel width beyond die-area plausibility")  \
    X(L206, "L206", Warning, "k above 0.9 n: reconstruction margin "         \
                             "nearly nil")                                   \
    X(L301, "L301", Error, "OTP tree height must lie in [1, 20]")            \
    X(L302, "L302", Warning, "OTP tree height below 4 leaves the "           \
                             "adversary a path-guess probability of 1/8 "    \
                             "or better")                                    \
    X(L303, "L303", Error, "OTP copies must be at least 1")                  \
    X(L304, "L304", Error, "OTP threshold must lie in [1, copies]")          \
    X(L305, "L305", Error, "OTP copies exceed the GF(256) Shamir share "     \
                           "limit")                                          \
    X(L306, "L306", Error, "OTP device alpha/beta must be positive")         \
    X(L307, "L307", Warning, "OTP switch alpha is not near-one-shot: "       \
                             "surviving trees open a replay window")         \
    X(L401, "L401", Error, "stuckClosedRate outside [0, 1]")                 \
    X(L402, "L402", Error, "infantFraction outside [0, 1]")                  \
    X(L403, "L403", Error, "infantScaleFraction must be positive")           \
    X(L404, "L404", Error, "infantShape must be positive")                   \
    X(L405, "L405", Error, "glitchRate outside [0, 1]")                      \
    X(L406, "L406", Error, "drift sigmas must be non-negative")              \
    X(L407, "L407", Warning, "stuckClosedRate above 5%: the attack bound "   \
                             "effectively collapses")                        \
    X(L408, "L408", Warning, "infantScaleFraction >= 1: the infant leg "     \
                             "is not early-life")                            \
    X(L409, "L409", Warning, "infantShape >= 1: infant hazard is not "       \
                             "decreasing")                                   \
    X(L410, "L410", Warning, "glitchRate above 0.5: availability "           \
                             "collapse")                                     \
    X(L411, "L411", Warning, "drift sigma above 1: order-of-magnitude "      \
                             "calibration uncertainty")                      \
    X(L501, "L501", Error, "M-way replication factor must be at least 1")    \
    X(L502, "L502", Warning, "M-way factor above 10000: migration/re-wrap "  \
                             "burden implausible")                           \
    X(L503, "L503", Error, "M-way module design is infeasible")              \
    X(L504, "L504", Warning, "M-way total device count beyond "              \
                             "fabrication plausibility")                     \
    X(L901, "L901", Error, "spec file unreadable")                           \
    X(L902, "L902", Error, "spec syntax error")                              \
    X(L903, "L903", Error, "unknown spec section")                           \
    X(L904, "L904", Warning, "unknown spec key")                             \
    X(L905, "L905", Error, "malformed spec value")                           \
    X(L906, "L906", Warning, "spec file declares no sections")               \
    X(L601, "L601", Error, "workload mean accesses per day must be "         \
                           "positive and finite")                            \
    X(L602, "L602", Error, "burst probability outside [0, 1]")               \
    X(L603, "L603", Error, "burst multiplier must be at least 1 and "        \
                           "finite")                                         \
    X(L604, "L604", Warning, "access budget below the expected demand "      \
                             "over the horizon")                             \
    X(L605, "L605", Warning, "burst-dominated profile: bursts carry most "   \
                             "of the demand")                                \
    X(L701, "L701", Error, "mixture infant fraction outside [0, 1]")         \
    X(L702, "L702", Error, "mixture component alpha/beta must be "           \
                           "positive and finite")                            \
    X(L703, "L703", Warning, "infant component shape >= 1: hazard is not "   \
                             "decreasing")                                   \
    X(L704, "L704", Warning, "infant component scale not below the main "    \
                             "scale")                                        \
    X(L801, "L801", Error, "fleet device count must be at least 1")          \
    X(L802, "L802", Error, "fleet horizon must be at least 1 day")           \
    X(L803, "L803", Error, "checkpoint interval must be at least 1 chunk")   \
    X(L804, "L804", Error, "cohort weight must lie in (0, 1]")               \
    X(L805, "L805", Error, "cohort weights must sum to 1")                   \
    X(L806, "L806", Error, "provisioning stagger must be non-negative "      \
                           "and finite")                                     \
    X(L807, "L807", Error, "cohort access bound must be at least 1")         \
    X(L808, "L808", Warning, "fleet declares no cohorts")                    \
    X(L809, "L809", Warning, "re-provisioning scheduled at or beyond the "   \
                             "horizon: the event never fires")               \
    X(L810, "L810", Warning, "premature-lockout threshold at or beyond "     \
                             "the horizon: every lockout counts as "         \
                             "premature")                                    \
    X(L811, "L811", Error, "re-provisioning usage scale must be "            \
                           "non-negative and finite")                        \
    X(V001, "V001", Note, "certified bound bracket")                         \
    X(V002, "V002", Error, "survival bracket falls below the reliability "   \
                           "floor at the access bound")                      \
    X(V003, "V003", Error, "residual survival bracket exceeds the "          \
                           "degradation ceiling")                            \
    X(V004, "V004", Warning, "bound bracket inconclusive: the criterion "    \
                             "lies inside the certified interval")           \
    X(V005, "V005", Error, "expected total accesses cannot reach the "       \
                           "legitimate access bound")                        \
    X(V006, "V006", Error, "expected total accesses exceed the "             \
                           "upper-bound target")                             \
    X(V007, "V007", Error, "OTP adversary success bracket is not "           \
                           "negligible")                                     \
    X(V008, "V008", Warning, "OTP receiver success bracket below the "       \
                             "delivery floor")                               \
    X(V101, "V101", Warning, "unreachable node: no source-to-sink path "     \
                             "traverses it")                                 \
    X(V102, "V102", Warning, "redundancy waste: parallel width beyond "      \
                             "what the reliability target needs")            \
    X(V103, "V103", Error, "fault plan attached to a node the design "       \
                           "never traverses")                                \
    X(V201, "V201", Error, "secret share reaches a sink without "            \
                           "traversing a wearout gate")                      \
    X(V202, "V202", Error, "fewer than threshold shares sit behind "         \
                           "wearout gates")                                  \
    X(V203, "V203", Warning, "secret source cannot reach any sink: the "     \
                             "key is unrecoverable")                         \
    X(V901, "V901", Error, "spec does not lower into the architecture IR")   \
    X(L014, "L014", Error, "guess-success ceiling outside (0, 1)")           \
    X(L812, "L812", Error, "premature-lockout tolerance outside (0, 1]")     \
    X(C101, "C101", Error, "checkpoint magic is not fleet-ckpt")             \
    X(C102, "C102", Error, "unsupported checkpoint version")                 \
    X(C103, "C103", Error, "truncated checkpoint payload")                   \
    X(C104, "C104", Error, "checkpoint checksum mismatch")                   \
    X(C105, "C105", Error, "checkpoint configuration fingerprint "           \
                           "mismatch")                                       \
    X(C106, "C106", Error, "malformed checkpoint payload")                   \
    X(C107, "C107", Error, "checkpoint io failure")                          \
    X(A001, "A001", Error, "declared workload demand can exhaust the "       \
                           "provisioned access budget")                      \
    X(A002, "A002", Error, "premature-lockout bracket exceeds the "          \
                           "declared fleet tolerance")                       \
    X(A003, "A003", Warning, "dead wear: provisioned budget far exceeds "    \
                             "every declared workload demand")               \
    X(A004, "A004", Note, "certified access-consumption bracket")            \
    X(A101, "A101", Error, "guessing-adversary success bracket exceeds "     \
                           "the declared ceiling")                           \
    X(A102, "A102", Error, "adversary access consumption is unbounded "      \
                           "by wearout")                                     \
    X(A103, "A103", Warning, "guessing-adversary bracket straddles the "     \
                             "declared ceiling")                             \
    X(A104, "A104", Note, "guessing-adversary obligation discharged: "       \
                          "success bracket below the ceiling")               \
    X(T001, "T001", Error, "raw std::thread/std::async outside the engine "  \
                           "pool (lemons-no-raw-thread)")                    \
    X(T002, "T002", Error, "nondeterminism source in a simulation TU "       \
                           "(lemons-deterministic-sim)")                     \
    X(T004, "T004", Error, "member mutated under MutexLock without a "       \
                           "GUARDED_BY annotation (lemons-guarded-member)")  \
    X(T005, "T005", Warning, "misused LEMONS_OBS_SCOPED_TIMER or "           \
                             "unregistered metric namespace "                \
                             "(lemons-obs-scoped-timer)")                    \
    X(T006, "T006", Error, "raw cross-thread accumulation outside "          \
                           "RunningStats merge (lemons-stats-accumulation)") \
    X(S001, "S001", Error, "request body is not valid JSON")                 \
    X(S002, "S002", Error, "request does not match the lemons-api/1 "        \
                           "schema")                                         \
    X(S003, "S003", Error, "unknown endpoint")                               \
    X(S004, "S004", Error, "method not allowed for this endpoint")           \
    X(S005, "S005", Error, "request body exceeds the configured size "       \
                           "limit")                                          \
    X(S006, "S006", Error, "malformed HTTP request")                         \
    X(S007, "S007", Error, "per-tenant request quota exhausted")             \
    X(S008, "S008", Error, "server is draining: new requests refused")       \
    X(S009, "S009", Error, "admission queue full")                           \
    X(S010, "S010", Error, "spec contains no section this endpoint can "     \
                           "run")                                            \
    X(S011, "S011", Error, "request field value out of range")              \
    X(S012, "S012", Error, "internal error while handling the request")      \
    X(L813, "L813", Warning, "provisioning stagger reaches the horizon: "    \
                             "late entrants serve no days")                  \
    X(L907, "L907", Error, "spec key repeated within one section")           \
    X(L015, "L015", Error, "design solve exceeds the solver work limit")
// clang-format on

#endif // LEMONS_LINT_CODE_REGISTRY_H_
