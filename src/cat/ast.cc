#include "cat/ast.h"

#include <algorithm>
#include <cctype>

#include "cat/cat.h"
#include "common/log.h"

namespace gpulitmus::cat {

namespace {

// ---------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------

enum class Tok {
    Ident,
    Let,
    Acyclic,
    Irreflexive,
    Empty,
    As,
    Eq,
    Bar,
    Amp,
    Backslash,
    Semi,
    Plus,
    Star,
    Question,
    Inverse, // ^-1
    LParen,
    RParen,
    Comma,
    End,
};

struct Token
{
    Tok kind = Tok::End;
    std::string text;
    int line = 1;
};

class Lexer
{
  public:
    explicit Lexer(const std::string &src) : src_(src) { advance(); }

    const Token &peek() const { return tok_; }

    Token
    take()
    {
        Token t = tok_;
        advance();
        return t;
    }

    bool
    takeIf(Tok kind)
    {
        if (tok_.kind == kind) {
            advance();
            return true;
        }
        return false;
    }

  private:
    void
    advance()
    {
        skipTrivia();
        tok_.line = line_;
        if (pos_ >= src_.size()) {
            tok_ = Token{Tok::End, "", line_};
            return;
        }
        char c = src_[pos_];
        auto simple = [&](Tok k, const char *text, size_t len) {
            tok_ = Token{k, text, line_};
            pos_ += len;
        };
        switch (c) {
          case '|': return simple(Tok::Bar, "|", 1);
          case '&': return simple(Tok::Amp, "&", 1);
          case '\\': return simple(Tok::Backslash, "\\", 1);
          case ';': return simple(Tok::Semi, ";", 1);
          case '+': return simple(Tok::Plus, "+", 1);
          case '*': return simple(Tok::Star, "*", 1);
          case '?': return simple(Tok::Question, "?", 1);
          case '(': return simple(Tok::LParen, "(", 1);
          case ')': return simple(Tok::RParen, ")", 1);
          case ',': return simple(Tok::Comma, ",", 1);
          case '=': return simple(Tok::Eq, "=", 1);
          case '^':
            if (src_.compare(pos_, 3, "^-1") == 0)
                return simple(Tok::Inverse, "^-1", 3);
            break;
          default:
            break;
        }
        if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
            size_t start = pos_;
            while (pos_ < src_.size()) {
                char d = src_[pos_];
                if (std::isalnum(static_cast<unsigned char>(d)) ||
                    d == '_' || d == '.' ||
                    (d == '-' &&
                     pos_ + 1 < src_.size() &&
                     (std::isalnum(static_cast<unsigned char>(
                          src_[pos_ + 1])) ||
                      src_[pos_ + 1] == '_'))) {
                    ++pos_;
                } else {
                    break;
                }
            }
            std::string word = src_.substr(start, pos_ - start);
            if (word == "let")
                tok_ = Token{Tok::Let, word, line_};
            else if (word == "acyclic")
                tok_ = Token{Tok::Acyclic, word, line_};
            else if (word == "irreflexive")
                tok_ = Token{Tok::Irreflexive, word, line_};
            else if (word == "empty")
                tok_ = Token{Tok::Empty, word, line_};
            else if (word == "as")
                tok_ = Token{Tok::As, word, line_};
            else
                tok_ = Token{Tok::Ident, word, line_};
            return;
        }
        // Unknown character: surface as an Ident token the parser
        // will reject with a line number.
        tok_ = Token{Tok::Ident, std::string(1, c), line_};
        ++pos_;
    }

    void
    skipTrivia()
    {
        for (;;) {
            if (pos_ >= src_.size())
                return;
            char c = src_[pos_];
            if (c == '\n') {
                ++line_;
                ++pos_;
            } else if (std::isspace(static_cast<unsigned char>(c))) {
                ++pos_;
            } else if (src_.compare(pos_, 2, "//") == 0) {
                while (pos_ < src_.size() && src_[pos_] != '\n')
                    ++pos_;
            } else if (src_.compare(pos_, 2, "(*") == 0) {
                pos_ += 2;
                while (pos_ < src_.size() &&
                       src_.compare(pos_, 2, "*)") != 0) {
                    if (src_[pos_] == '\n')
                        ++line_;
                    ++pos_;
                }
                pos_ += 2;
            } else {
                return;
            }
        }
    }

    const std::string &src_;
    size_t pos_ = 0;
    int line_ = 1;
    Token tok_;
};

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

class Parser
{
  public:
    explicit Parser(const std::string &src) : lex_(src) {}

    std::optional<std::vector<Stmt>>
    parse(CatError *error)
    {
        std::vector<Stmt> stmts;
        while (lex_.peek().kind != Tok::End) {
            auto s = parseStmt();
            if (!s) {
                if (error)
                    *error = err_;
                return std::nullopt;
            }
            stmts.push_back(std::move(*s));
        }
        return stmts;
    }

  private:
    std::nullopt_t
    fail(const std::string &msg)
    {
        if (err_.message.empty()) {
            err_.message = msg;
            err_.line = lex_.peek().line;
        }
        return std::nullopt;
    }

    std::optional<Stmt>
    parseStmt()
    {
        const Token &t = lex_.peek();
        if (t.kind == Tok::Let)
            return parseLet();
        if (t.kind == Tok::Acyclic || t.kind == Tok::Irreflexive ||
            t.kind == Tok::Empty)
            return parseCheck();
        return fail("expected 'let' or a check, got '" + t.text + "'");
    }

    std::optional<Stmt>
    parseLet()
    {
        Stmt s;
        s.kind = Stmt::Kind::Let;
        s.line = lex_.peek().line;
        lex_.take(); // let
        if (lex_.peek().kind != Tok::Ident)
            return fail("expected name after 'let'");
        s.name = lex_.take().text;
        if (lex_.takeIf(Tok::LParen)) {
            for (;;) {
                if (lex_.peek().kind != Tok::Ident)
                    return fail("expected parameter name");
                s.params.push_back(lex_.take().text);
                if (lex_.takeIf(Tok::Comma))
                    continue;
                if (lex_.takeIf(Tok::RParen))
                    break;
                return fail("expected ',' or ')' in parameter list");
            }
        }
        if (!lex_.takeIf(Tok::Eq))
            return fail("expected '=' in let");
        auto e = parseExpr();
        if (!e)
            return std::nullopt;
        s.expr = *e;
        return s;
    }

    std::optional<Stmt>
    parseCheck()
    {
        Stmt s;
        s.kind = Stmt::Kind::Check;
        s.line = lex_.peek().line;
        Token t = lex_.take();
        switch (t.kind) {
          case Tok::Acyclic: s.check = CheckKind::Acyclic; break;
          case Tok::Irreflexive: s.check = CheckKind::Irreflexive; break;
          case Tok::Empty: s.check = CheckKind::Empty; break;
          default: panic("unreachable");
        }
        auto e = parseExpr();
        if (!e)
            return std::nullopt;
        s.expr = *e;
        if (lex_.takeIf(Tok::As)) {
            if (lex_.peek().kind != Tok::Ident)
                return fail("expected name after 'as'");
            s.checkName = lex_.take().text;
        } else {
            s.checkName = t.text;
        }
        return s;
    }

    // Precedence (loosest to tightest): | then & then \ then ;
    std::optional<ExprPtr>
    parseExpr()
    {
        // Bounds the parser's own recursion (parentheses, arguments).
        if (nesting_ >= kMaxDepth)
            return fail("expression nested too deeply");
        ++nesting_;
        auto e = parseBinary(0);
        --nesting_;
        return e;
    }

    /** Finish a node: record its height and bound it, so that no
     * later recursion over the tree (compiling, destroying) can run
     * out of stack. */
    std::optional<ExprPtr>
    node(const std::shared_ptr<Expr> &e)
    {
        int below = 0;
        for (const ExprPtr &child : {e->lhs, e->rhs}) {
            if (child)
                below = std::max(below, child->depth);
        }
        for (const ExprPtr &arg : e->args)
            below = std::max(below, arg->depth);
        e->depth = below + 1;
        if (e->depth > kMaxDepth)
            return fail("expression nested too deeply");
        return ExprPtr(e);
    }

    std::optional<ExprPtr>
    parseBinary(int level)
    {
        static const Tok ops[] = {Tok::Bar, Tok::Amp, Tok::Backslash,
                                  Tok::Semi};
        static const Expr::Kind kinds[] = {
            Expr::Kind::Union, Expr::Kind::Inter, Expr::Kind::Diff,
            Expr::Kind::Seq};
        if (level == 4)
            return parsePostfix();
        auto lhs = parseBinary(level + 1);
        if (!lhs)
            return std::nullopt;
        while (lex_.peek().kind == ops[level]) {
            int line = lex_.take().line;
            auto rhs = parseBinary(level + 1);
            if (!rhs)
                return std::nullopt;
            auto e = std::make_shared<Expr>();
            e->kind = kinds[level];
            e->lhs = *lhs;
            e->rhs = *rhs;
            e->line = line;
            lhs = node(e);
            if (!lhs)
                return std::nullopt;
        }
        return lhs;
    }

    std::optional<ExprPtr>
    parsePostfix()
    {
        auto base = parseAtom();
        if (!base)
            return std::nullopt;
        for (;;) {
            Expr::Kind k;
            if (lex_.peek().kind == Tok::Plus)
                k = Expr::Kind::Plus;
            else if (lex_.peek().kind == Tok::Star)
                k = Expr::Kind::Star;
            else if (lex_.peek().kind == Tok::Question)
                k = Expr::Kind::Maybe;
            else if (lex_.peek().kind == Tok::Inverse)
                k = Expr::Kind::Inverse;
            else
                break;
            int line = lex_.take().line;
            auto e = std::make_shared<Expr>();
            e->kind = k;
            e->lhs = *base;
            e->line = line;
            base = node(e);
            if (!base)
                return std::nullopt;
        }
        return base;
    }

    std::optional<ExprPtr>
    parseAtom()
    {
        const Token &t = lex_.peek();
        if (t.kind == Tok::LParen) {
            lex_.take();
            auto inner = parseExpr();
            if (!inner)
                return std::nullopt;
            if (!lex_.takeIf(Tok::RParen))
                return fail("expected ')'");
            return inner;
        }
        if (t.kind != Tok::Ident)
            return fail("expected relation, got '" + t.text + "'");
        Token name = lex_.take();
        auto e = std::make_shared<Expr>();
        e->name = name.text;
        e->line = name.line;
        if (lex_.takeIf(Tok::LParen)) {
            e->kind = Expr::Kind::App;
            for (;;) {
                auto arg = parseExpr();
                if (!arg)
                    return std::nullopt;
                e->args.push_back(*arg);
                if (lex_.takeIf(Tok::Comma))
                    continue;
                if (lex_.takeIf(Tok::RParen))
                    break;
                return fail("expected ',' or ')' in arguments");
            }
        } else {
            e->kind = Expr::Kind::Name;
        }
        return node(e);
    }

    /** Deepest expression accepted (no real model comes close). */
    static constexpr int kMaxDepth = 500;

    Lexer lex_;
    CatError err_;
    int nesting_ = 0;
};

} // anonymous namespace

std::optional<std::vector<Stmt>>
parseStatements(const std::string &source, CatError *error)
{
    return Parser(source).parse(error);
}

const char *
toString(CheckKind kind)
{
    switch (kind) {
      case CheckKind::Acyclic: return "acyclic";
      case CheckKind::Irreflexive: return "irreflexive";
      case CheckKind::Empty: return "empty";
    }
    return "?";
}

} // namespace gpulitmus::cat
