#include "litmus/condition.h"

#include <cctype>

#include "common/log.h"
#include "common/strutil.h"

namespace gpulitmus::litmus {

Condition
Condition::regEq(int tid, std::string reg, int64_t value)
{
    Condition c;
    c.kind_ = Kind::RegEq;
    c.tid_ = tid;
    c.name_ = std::move(reg);
    c.value_ = value;
    return c;
}

Condition
Condition::locEq(std::string loc, int64_t value)
{
    Condition c;
    c.kind_ = Kind::LocEq;
    c.name_ = std::move(loc);
    c.value_ = value;
    return c;
}

Condition
Condition::conj(Condition a, Condition b)
{
    Condition c;
    c.kind_ = Kind::And;
    c.children_.push_back(std::make_shared<Condition>(std::move(a)));
    c.children_.push_back(std::make_shared<Condition>(std::move(b)));
    return c;
}

Condition
Condition::disj(Condition a, Condition b)
{
    Condition c;
    c.kind_ = Kind::Or;
    c.children_.push_back(std::make_shared<Condition>(std::move(a)));
    c.children_.push_back(std::make_shared<Condition>(std::move(b)));
    return c;
}

Condition
Condition::negate(Condition a)
{
    Condition c;
    c.kind_ = Kind::Not;
    c.children_.push_back(std::make_shared<Condition>(std::move(a)));
    return c;
}

bool
Condition::eval(const FinalState &state) const
{
    switch (kind_) {
      case Kind::True:
        return true;
      case Kind::RegEq:
        return state.reg(tid_, name_) == value_;
      case Kind::LocEq:
        return state.loc(name_) == value_;
      case Kind::And:
        return children_[0]->eval(state) && children_[1]->eval(state);
      case Kind::Or:
        return children_[0]->eval(state) || children_[1]->eval(state);
      case Kind::Not:
        return !children_[0]->eval(state);
    }
    panic("unknown Condition kind");
}

void
Condition::collectRegs(std::vector<RegKey> &out) const
{
    if (kind_ == Kind::RegEq) {
        RegKey key{tid_, name_};
        for (const auto &k : out) {
            if (k == key)
                return;
        }
        out.push_back(key);
        return;
    }
    for (const auto &c : children_)
        c->collectRegs(out);
}

void
Condition::collectLocs(std::vector<std::string> &out) const
{
    if (kind_ == Kind::LocEq) {
        for (const auto &l : out) {
            if (l == name_)
                return;
        }
        out.push_back(name_);
        return;
    }
    for (const auto &c : children_)
        c->collectLocs(out);
}

bool
Condition::operator==(const Condition &other) const
{
    if (kind_ != other.kind_ || tid_ != other.tid_ ||
        name_ != other.name_ || value_ != other.value_ ||
        children_.size() != other.children_.size())
        return false;
    for (size_t i = 0; i < children_.size(); ++i) {
        if (!(*children_[i] == *other.children_[i]))
            return false;
    }
    return true;
}

std::string
Condition::str() const
{
    switch (kind_) {
      case Kind::True:
        return "true";
      case Kind::RegEq:
        return std::to_string(tid_) + ":" + name_ + "=" +
               std::to_string(value_);
      case Kind::LocEq:
        return name_ + "=" + std::to_string(value_);
      case Kind::And:
        return "(" + children_[0]->str() + " /\\ " +
               children_[1]->str() + ")";
      case Kind::Or:
        return "(" + children_[0]->str() + " \\/ " +
               children_[1]->str() + ")";
      case Kind::Not:
        return "~(" + children_[0]->str() + ")";
    }
    panic("unknown Condition kind");
}

namespace {

/** Recursive-descent parser over a token cursor. */
class CondParser
{
  public:
    explicit CondParser(const std::string &text) : text_(text) {}

    std::optional<Condition>
    parse()
    {
        auto c = parseOr();
        skipSpace();
        if (!c || pos_ != text_.size())
            return std::nullopt;
        return c;
    }

  private:
    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    bool
    eat(const std::string &tok)
    {
        skipSpace();
        if (text_.compare(pos_, tok.size(), tok) == 0) {
            pos_ += tok.size();
            return true;
        }
        return false;
    }

    std::optional<Condition>
    parseOr()
    {
        auto lhs = parseAnd();
        if (!lhs)
            return std::nullopt;
        while (eat("\\/")) {
            auto rhs = parseAnd();
            if (!rhs)
                return std::nullopt;
            lhs = Condition::disj(std::move(*lhs), std::move(*rhs));
        }
        return lhs;
    }

    std::optional<Condition>
    parseAnd()
    {
        auto lhs = parseUnary();
        if (!lhs)
            return std::nullopt;
        while (eat("/\\")) {
            auto rhs = parseUnary();
            if (!rhs)
                return std::nullopt;
            lhs = Condition::conj(std::move(*lhs), std::move(*rhs));
        }
        return lhs;
    }

    std::optional<Condition>
    parseUnary()
    {
        if (eat("~") || eat("not ")) {
            auto inner = parseUnary();
            if (!inner)
                return std::nullopt;
            return Condition::negate(std::move(*inner));
        }
        if (eat("(")) {
            auto inner = parseOr();
            if (!inner || !eat(")"))
                return std::nullopt;
            return inner;
        }
        return parseAtom();
    }

    std::optional<Condition>
    parseAtom()
    {
        skipSpace();
        size_t start = pos_;
        while (pos_ < text_.size() && text_[pos_] != '=' &&
               text_[pos_] != ')' &&
               !std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
        std::string lhs = text_.substr(start, pos_ - start);
        if (lhs.empty())
            return std::nullopt;
        if (!eat("="))
            return std::nullopt;
        skipSpace();
        size_t vstart = pos_;
        while (pos_ < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '-' || text_[pos_] == 'x'))
            ++pos_;
        auto value = parseInt(text_.substr(vstart, pos_ - vstart));
        if (!value)
            return std::nullopt;

        auto colon = lhs.find(':');
        if (colon != std::string::npos) {
            auto tid = parseInt(lhs.substr(0, colon));
            if (!tid)
                return std::nullopt;
            return Condition::regEq(static_cast<int>(*tid),
                                    lhs.substr(colon + 1), *value);
        }
        return Condition::locEq(lhs, *value);
    }

    const std::string &text_;
    size_t pos_ = 0;
};

} // anonymous namespace

std::optional<Condition>
parseCondition(const std::string &text)
{
    return CondParser(trim(text)).parse();
}

std::optional<std::pair<Quantifier, Condition>>
parseQuantifiedCondition(const std::string &text)
{
    std::string line = trim(text);
    Quantifier q = Quantifier::Exists;
    if (startsWith(line, "~exists")) {
        q = Quantifier::NotExists;
        line = trim(line.substr(7));
    } else if (startsWith(line, "exists")) {
        q = Quantifier::Exists;
        line = trim(line.substr(6));
    } else if (startsWith(line, "forall")) {
        q = Quantifier::Forall;
        line = trim(line.substr(6));
    } else if (startsWith(line, "final:")) {
        q = Quantifier::Exists;
        line = trim(line.substr(6));
    } else {
        return std::nullopt;
    }
    auto cond = parseCondition(line);
    if (!cond)
        return std::nullopt;
    return std::make_pair(q, std::move(*cond));
}

std::string
toString(Quantifier q)
{
    switch (q) {
      case Quantifier::Exists: return "exists";
      case Quantifier::NotExists: return "~exists";
      case Quantifier::Forall: return "forall";
    }
    panic("unknown Quantifier");
}

} // namespace gpulitmus::litmus
