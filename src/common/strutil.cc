#include "common/strutil.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>

namespace gpulitmus {

std::string
trim(std::string_view s)
{
    size_t b = 0;
    size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return std::string(s.substr(b, e - b));
}

std::vector<std::string>
split(std::string_view s, char sep)
{
    std::vector<std::string> out;
    size_t start = 0;
    for (size_t i = 0; i <= s.size(); ++i) {
        if (i == s.size() || s[i] == sep) {
            out.emplace_back(s.substr(start, i - start));
            start = i + 1;
        }
    }
    return out;
}

std::vector<std::string>
splitWhitespace(std::string_view s)
{
    std::vector<std::string> out;
    size_t i = 0;
    while (i < s.size()) {
        while (i < s.size() &&
               std::isspace(static_cast<unsigned char>(s[i])))
            ++i;
        size_t start = i;
        while (i < s.size() &&
               !std::isspace(static_cast<unsigned char>(s[i])))
            ++i;
        if (i > start)
            out.emplace_back(s.substr(start, i - start));
    }
    return out;
}

bool
startsWith(std::string_view s, std::string_view prefix)
{
    return s.size() >= prefix.size() &&
           s.substr(0, prefix.size()) == prefix;
}

bool
endsWith(std::string_view s, std::string_view suffix)
{
    return s.size() >= suffix.size() &&
           s.substr(s.size() - suffix.size()) == suffix;
}

std::string
toLower(std::string_view s)
{
    std::string out(s);
    for (auto &c : out)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return out;
}

std::optional<int64_t>
parseInt(std::string_view s)
{
    std::string str = trim(s);
    if (str.empty())
        return std::nullopt;
    // Base 10 unless a 0x/0X follows the optional sign: strtoll's base
    // 0 would read a leading zero as octal ("010" as 8).
    size_t digits = str[0] == '-' || str[0] == '+' ? 1 : 0;
    bool hex = str.size() > digits + 1 && str[digits] == '0' &&
               (str[digits + 1] == 'x' || str[digits + 1] == 'X');
    char *end = nullptr;
    errno = 0;
    long long v = std::strtoll(str.c_str(), &end, hex ? 16 : 10);
    if (end != str.c_str() + str.size() || errno == ERANGE)
        return std::nullopt;
    return static_cast<int64_t>(v);
}

uint64_t
fnv1a(std::string_view s)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

void
writeJsonArray(std::ostream &os,
               const std::vector<std::string> &entries)
{
    os << "[\n";
    for (size_t i = 0; i < entries.size(); ++i) {
        os << "  " << entries[i];
        if (i + 1 < entries.size())
            os << ",";
        os << "\n";
    }
    os << "]\n";
}

bool
writeJsonArrayFile(const std::string &path,
                   const std::vector<std::string> &entries)
{
    std::ofstream out(path);
    if (!out)
        return false;
    writeJsonArray(out, entries);
    return out.good();
}

} // namespace gpulitmus
