#include "ObsScopedTimerCheck.h"

#include "LemonsTidyUtils.h"
#include "clang/AST/ParentMapContext.h"

using namespace clang::ast_matchers;

namespace lemons::tidy {

namespace {

constexpr llvm::StringLiteral kCode("T005");

/**
 * Walks the parent chain of @p node. Returns the loop statement the
 * node sits in, or nullptr when a function/lambda boundary (a new
 * execution context — the loop does not re-run that body) or the
 * translation unit is reached first. A declaration parent also means
 * "not in a loop" (e.g. a default-member-initializer context).
 */
const clang::Stmt *
enclosingLoop(clang::DynTypedNode node, clang::ASTContext &context)
{
    for (;;) {
        const auto parents = context.getParents(node);
        if (parents.empty())
            return nullptr;
        const clang::DynTypedNode parent = parents[0];
        if (const auto *stmt = parent.get<clang::Stmt>()) {
            if (llvm::isa<clang::ForStmt>(stmt) ||
                llvm::isa<clang::WhileStmt>(stmt) ||
                llvm::isa<clang::DoStmt>(stmt) ||
                llvm::isa<clang::CXXForRangeStmt>(stmt))
                return stmt;
            if (llvm::isa<clang::LambdaExpr>(stmt))
                return nullptr;
            node = parent;
            continue;
        }
        return nullptr;
    }
}

/** Whether the parent chain shows the temporary is discarded (its
 *  full expression is a statement, not an initializer). */
bool
isDiscardedTemporary(const clang::Expr *temporary,
                     clang::ASTContext &context)
{
    clang::DynTypedNode node = clang::DynTypedNode::create(*temporary);
    for (;;) {
        const auto parents = context.getParents(node);
        if (parents.empty())
            return false;
        const clang::DynTypedNode parent = parents[0];
        if (parent.get<clang::VarDecl>() != nullptr ||
            parent.get<clang::CXXCtorInitializer>() != nullptr ||
            parent.get<clang::ReturnStmt>() != nullptr)
            return false;
        if (parent.get<clang::CompoundStmt>() != nullptr)
            return true;
        if (parent.get<clang::Stmt>() == nullptr)
            return false;
        node = parent;
    }
}

} // namespace

ObsScopedTimerCheck::ObsScopedTimerCheck(
    llvm::StringRef name, clang::tidy::ClangTidyContext *context)
    : ClangTidyCheck(name, context),
      namespaceOption(Options.get(
          "Namespaces", "sim.;core.;rs.;shamir.;arch.;fleet.;wearout."))
{
    llvm::SmallVector<llvm::StringRef, 8> parts;
    llvm::StringRef(namespaceOption).split(parts, ';', -1, false);
    for (llvm::StringRef part : parts)
        namespaces.emplace_back(part.trim());
}

void
ObsScopedTimerCheck::storeOptions(
    clang::tidy::ClangTidyOptions::OptionMap &options)
{
    Options.store(options, "Namespaces", namespaceOption);
}

void
ObsScopedTimerCheck::registerMatchers(MatchFinder *finder)
{
    const auto scopedTimer =
        cxxRecordDecl(hasName("::lemons::obs::ScopedTimer"));
    finder->addMatcher(
        cxxTemporaryObjectExpr(hasType(scopedTimer)).bind("temporary"),
        this);
    finder->addMatcher(varDecl(hasType(scopedTimer)).bind("guard"), this);
    finder->addMatcher(
        cxxMemberCallExpr(
            callee(cxxMethodDecl(
                hasAnyName("counter", "timer"),
                ofClass(hasName("::lemons::obs::Registry")))),
            // The name argument is a std::string_view, so the literal
            // usually sits under a string_view constructor rather than
            // a plain implicit cast.
            hasArgument(0, expr(anyOf(
                               ignoringParenImpCasts(
                                   stringLiteral().bind("name")),
                               hasDescendant(
                                   stringLiteral().bind("name"))))))
            .bind("registration"),
        this);
}

void
ObsScopedTimerCheck::check(const MatchFinder::MatchResult &result)
{
    const clang::SourceManager &sm = *result.SourceManager;
    const CodeRow row = codeRow(kCode);

    if (const auto *temporary =
            result.Nodes.getNodeAs<clang::CXXTemporaryObjectExpr>(
                "temporary")) {
        const clang::SourceLocation loc =
            sm.getExpansionLoc(temporary->getBeginLoc());
        if (sm.isInSystemHeader(loc) || allowSuppressed(sm, loc, kCode))
            return;
        if (!isDiscardedTemporary(temporary, *result.Context))
            return;
        diag(loc, "%0: ScopedTimer temporary is destroyed inside the same "
                  "full expression and times nothing; use "
                  "LEMONS_OBS_SCOPED_TIMER to bind a named guard [%1]")
            << row.id << row.title;
        return;
    }

    if (const auto *guard =
            result.Nodes.getNodeAs<clang::VarDecl>("guard")) {
        const clang::SourceLocation loc =
            sm.getExpansionLoc(guard->getLocation());
        if (sm.isInSystemHeader(loc) || allowSuppressed(sm, loc, kCode))
            return;
        if (enclosingLoop(clang::DynTypedNode::create(*guard),
                          *result.Context) == nullptr)
            return;
        diag(loc, "%0: ScopedTimer constructed every loop iteration; wrap "
                  "the loop with one timer, or annotate "
                  "LEMONS-TIDY-ALLOW(T005) if per-iteration timing is "
                  "intended [%1]")
            << row.id << row.title;
        return;
    }

    if (const auto *name =
            result.Nodes.getNodeAs<clang::StringLiteral>("name")) {
        const auto *registration =
            result.Nodes.getNodeAs<clang::CXXMemberCallExpr>("registration");
        const clang::SourceLocation loc = sm.getExpansionLoc(
            registration == nullptr ? name->getBeginLoc()
                                    : registration->getBeginLoc());
        if (sm.isInSystemHeader(loc) || allowSuppressed(sm, loc, kCode))
            return;
        const llvm::StringRef metric = name->getString();
        // take_front instead of startswith/starts_with: the spelling
        // changed across the LLVM 14..18 span this plugin builds on.
        for (const std::string &prefix : namespaces)
            if (metric.size() >= prefix.size() &&
                metric.take_front(prefix.size()) == prefix)
                return;
        diag(loc, "%0: metric name '%1' is outside the registered "
                  "namespaces (%2); dashboards and snapshot diffs key on "
                  "those prefixes [%3]")
            << row.id << metric << namespaceOption << row.title;
    }
}

} // namespace lemons::tidy
