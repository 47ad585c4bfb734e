/**
 * @file
 * Syntax tree of the .cat dialect (see cat.h) and its parser. The
 * compiler in cat.cc lowers these statements to a slot-resolved
 * program; nothing evaluates the tree itself.
 */

#ifndef GPULITMUS_CAT_AST_H
#define GPULITMUS_CAT_AST_H

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace gpulitmus::cat {

struct CatError;

struct Expr;
using ExprPtr = std::shared_ptr<const Expr>;

struct Expr
{
    enum class Kind {
        Name,
        Union,
        Inter,
        Diff,
        Seq,
        Plus,
        Star,
        Maybe,
        Inverse,
        App,
    };

    Kind kind;
    std::string name;           // Name / App callee
    std::vector<ExprPtr> args;  // App arguments
    ExprPtr lhs, rhs;           // binary / unary (lhs only)
    int line = 0;
    int depth = 1;              // height of this subtree
};

enum class CheckKind { Acyclic, Irreflexive, Empty };

struct Stmt
{
    enum class Kind { Let, Check };

    Kind kind;
    // Let
    std::string name;
    std::vector<std::string> params;
    // Check
    CheckKind check = CheckKind::Acyclic;
    std::string checkName;

    ExprPtr expr;
    int line = 0;
};

/** Parse source text into statements; nullopt + error on bad syntax.
 * Names are not resolved here (Model::parse does that). */
std::optional<std::vector<Stmt>> parseStatements(const std::string &source,
                                                 CatError *error);

/** "acyclic" / "irreflexive" / "empty". */
const char *toString(CheckKind kind);

} // namespace gpulitmus::cat

#endif // GPULITMUS_CAT_AST_H
