/**
 * @file
 * The front end both static analyzers share: the C++ lexer, the inline
 * suppression markers, the allowlist, the file walk, the fixture
 * corpus, the self-test runner and the command line. nvo_lint (token
 * rules) and nvo_check (flow-aware persist-protocol rules) differ only
 * in the rules they run over the token stream; each fills in a Tool
 * and hands main() to run(). See docs/STATIC_ANALYSIS.md.
 *
 * Suppression: an allowlist file ("<rule> <path-suffix>[:<function>]"
 * per line, default Tool::allowlist when it exists under the working
 * directory) or an inline "<tool>: allow(rule)" marker on the
 * offending line, e.g. "nvo-lint: allow(raw-io)".
 *
 * Exit status: 0 clean, 1 violations found, 2 usage or I/O error.
 * `--self-test` runs the tool's seeded cases. `--corpus DIR` runs
 * every fixture in DIR, whose names encode the expectation:
 * `<rule_with_underscores>.<good|bad>[.variant].cc` — a bad fixture
 * must produce at least one violation and only of that rule, a good
 * one none. A leading `// lint-path: <path>` line (within the first
 * five) pins the scope path a fixture is judged under, e.g.
 * `nvoverlay/fixture.cc` to put it under a nvoverlay/-scoped rule.
 *
 * Header-only so each analyzer stays one standalone g++ command.
 */

#ifndef NVO_TOOLS_ANALYZER_FRONT_HH
#define NVO_TOOLS_ANALYZER_FRONT_HH

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

namespace front
{

namespace fs = std::filesystem;

struct Violation
{
    std::string file;
    int line = 0;
    std::string rule;
    std::string message;
    std::string function;   // enclosing function, when the rule knows
};

struct Token
{
    std::string text;
    int line = 0;
    bool ident = false;
    bool str = false;   // string literal, quotes included
};

inline bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/**
 * True when the '"' at @p i opens a raw string literal: preceded by
 * an R (optionally with a u8/u/U/L encoding prefix) that is itself
 * the start of the literal, not the tail of an identifier.
 */
inline bool
isRawStringStart(const std::string &text, std::size_t i)
{
    if (i == 0 || text[i - 1] != 'R')
        return false;
    std::size_t p = i - 1;   // index of the 'R'
    if (p >= 2 && text[p - 2] == 'u' && text[p - 1] == '8')
        p -= 2;
    else if (p >= 1 && (text[p - 1] == 'u' || text[p - 1] == 'U' ||
                        text[p - 1] == 'L'))
        p -= 1;
    return p == 0 || !isIdentChar(text[p - 1]);
}

/**
 * Lex C++ into tokens with their line numbers. Comments and
 * preprocessor lines vanish; string literals survive as single tokens
 * (fault-point names live in them), so a rule that matches text must
 * skip `str` tokens; raw strings are delimiter-matched so their quotes
 * cannot derail the scan. ">>" and "<<" split into two tokens so
 * template-angle matching stays sane: a rule reading '<' or '>' as a
 * comparison must rule out shifts itself.
 */
inline std::vector<Token>
tokenize(const std::string &text)
{
    std::vector<Token> out;
    int line = 1;
    std::size_t i = 0;
    const std::size_t n = text.size();
    auto peekc = [&](std::size_t k) {
        return k < n ? text[k] : '\0';
    };
    while (i < n) {
        char c = text[i];
        char nx = peekc(i + 1);
        if (c == '\n') {
            ++line;
            ++i;
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(c))) {
            ++i;
            continue;
        }
        if (c == '/' && nx == '/') {
            while (i < n && text[i] != '\n')
                ++i;
            continue;
        }
        if (c == '/' && nx == '*') {
            i += 2;
            while (i + 1 < n &&
                   !(text[i] == '*' && text[i + 1] == '/')) {
                if (text[i] == '\n')
                    ++line;
                ++i;
            }
            i = i + 1 < n ? i + 2 : n;
            continue;
        }
        if (c == '#' &&
            (out.empty() || out.back().line != line)) {
            // Preprocessor line (with continuations).
            while (i < n && text[i] != '\n') {
                if (text[i] == '\\' && peekc(i + 1) == '\n') {
                    ++line;
                    i += 2;
                    continue;
                }
                ++i;
            }
            continue;
        }
        if (c == '"' && isRawStringStart(text, i)) {
            // Already emitted the R/prefix as an ident token; replace
            // it with a single string token.
            if (!out.empty() && out.back().ident)
                out.pop_back();
            std::size_t open = text.find('(', i + 1);
            if (open == std::string::npos) {
                ++i;
                continue;
            }
            std::string delim = text.substr(i + 1, open - i - 1);
            std::string stop = ")" + delim + "\"";
            std::size_t end = text.find(stop, open + 1);
            std::size_t close =
                end == std::string::npos ? n : end + stop.size();
            std::string body = text.substr(i, close - i);
            int start_line = line;
            line += static_cast<int>(
                std::count(body.begin(), body.end(), '\n'));
            out.push_back({body, start_line, false, true});
            i = close;
            continue;
        }
        if (c == '"' || c == '\'') {
            char q = c;
            std::size_t start = i++;
            while (i < n && text[i] != q) {
                if (text[i] == '\\')
                    ++i;
                if (i < n) {
                    if (text[i] == '\n')
                        ++line;
                    ++i;
                }
            }
            if (i < n)
                ++i;   // closing quote
            out.push_back({text.substr(start, i - start), line,
                           false, q == '"'});
            continue;
        }
        if (std::isdigit(static_cast<unsigned char>(c))) {
            std::size_t start = i;
            while (i < n &&
                   (isIdentChar(text[i]) || text[i] == '.' ||
                    text[i] == '\'' ||
                    ((text[i] == '+' || text[i] == '-') && i > start &&
                     (text[i - 1] == 'e' || text[i - 1] == 'E' ||
                      text[i - 1] == 'p' || text[i - 1] == 'P'))))
                ++i;
            out.push_back({text.substr(start, i - start), line, false,
                           false});
            continue;
        }
        if (isIdentChar(c)) {
            std::size_t start = i;
            while (i < n && isIdentChar(text[i]))
                ++i;
            out.push_back(
                {text.substr(start, i - start), line, true, false});
            continue;
        }
        // Multi-char operators the rules depend on ("=" must mean
        // assignment; "." / "->" must be single tokens).
        static const char *two[] = {"::", "->", "==", "!=", "<=",
                                    ">=", "&&", "||", "+=", "-=",
                                    "*=", "/=", "%=", "&=", "|=",
                                    "^=", "++", "--"};
        std::string pair{c, nx};
        bool matched = false;
        for (const char *t : two) {
            if (pair == t) {
                out.push_back({pair, line, false, false});
                i += 2;
                matched = true;
                break;
            }
        }
        if (matched)
            continue;
        out.push_back({std::string(1, c), line, false, false});
        ++i;
    }
    return out;
}

/** Per-line allow markers, rule "*" allows all. */
using AllowMarkers = std::map<int, std::set<std::string>>;

/** Lines carrying @p marker (e.g. "nvo-lint: allow(") and the rules
 *  listed up to its closing parenthesis. */
inline AllowMarkers
collectMarkers(const std::string &text, const std::string &marker)
{
    AllowMarkers markers;
    std::istringstream in(text);
    std::string line;
    int num = 0;
    while (std::getline(in, line)) {
        ++num;
        std::size_t pos = line.find(marker);
        if (pos == std::string::npos)
            continue;
        std::size_t open = line.find('(', pos);
        std::size_t close = line.find(')', open);
        if (close == std::string::npos)
            continue;
        std::istringstream rs(line.substr(open + 1, close - open - 1));
        std::string rule;
        while (std::getline(rs, rule, ',')) {
            rule.erase(std::remove_if(rule.begin(), rule.end(),
                                      [](unsigned char c) {
                                          return std::isspace(c);
                                      }),
                       rule.end());
            if (!rule.empty())
                markers[num].insert(rule);
        }
    }
    return markers;
}

struct AllowEntry
{
    std::string rule;
    std::string pathSuffix;
    std::string function;   // optional ":func" qualifier
};

inline std::vector<AllowEntry>
loadAllowlist(const std::string &path, bool &ok)
{
    std::vector<AllowEntry> entries;
    std::ifstream in(path);
    ok = in.good();
    std::string line;
    while (std::getline(in, line)) {
        std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        std::istringstream ls(line);
        AllowEntry e;
        std::string spec;
        if (!(ls >> e.rule >> spec))
            continue;
        std::size_t colon = spec.find(':');
        if (colon != std::string::npos) {
            e.function = spec.substr(colon + 1);
            spec = spec.substr(0, colon);
        }
        e.pathSuffix = spec;
        entries.push_back(std::move(e));
    }
    return entries;
}

/** @p suffix ends @p path on a path-component boundary. */
inline bool
suffixMatches(const std::string &path, const std::string &suffix)
{
    if (suffix.size() > path.size())
        return false;
    if (path.compare(path.size() - suffix.size(), suffix.size(),
                     suffix) != 0)
        return false;
    return path.size() == suffix.size() ||
           path[path.size() - suffix.size() - 1] == '/';
}

/** The function qualifier, when given, substring-matches the
 *  reported function, so entries survive unrelated line churn. */
inline bool
allowlisted(const Violation &v, const std::vector<AllowEntry> &allow)
{
    for (const auto &e : allow) {
        if (e.rule != v.rule && e.rule != "*")
            continue;
        if (!suffixMatches(v.file, e.pathSuffix))
            continue;
        if (!e.function.empty() &&
            v.function.find(e.function) == std::string::npos)
            continue;
        return true;
    }
    return false;
}

/** One seeded self-test case; expectRule nullptr = expect clean. */
struct Case
{
    const char *name;
    const char *scopePath;
    const char *code;
    const char *expectRule;
};

/** One analyzer: its rules, its seeded cases, its suppression names. */
struct Tool
{
    const char *name;        // "nvo_lint"; prefixes summary lines
    const char *marker;      // "nvo-lint: allow("
    const char *allowlist;   // default allowlist, cwd-relative
    /** The rules over one file. @p scopePath is the path below src/
     *  ("nvoverlay/omc.cc") that scope-gated rules key on. */
    std::vector<Violation> (*rules)(const std::string &display,
                                    const std::string &scopePath,
                                    const std::string &text);
    std::vector<Case> cases;
    /** Tree runs skip files outside this scope (matched on the path as
     *  given). A tool with a scope also takes --force-scope and, for
     *  its must-fail runs, --no-allowlist. nullptr: no scope. */
    bool (*inScope)(const std::string &path);
};

/** The tool's rules, less inline-marked lines, in file/line order. */
inline std::vector<Violation>
analyze(const Tool &tool, const std::string &display,
        const std::string &scopePath, const std::string &text)
{
    std::vector<Violation> out = tool.rules(display, scopePath, text);
    AllowMarkers markers = collectMarkers(text, tool.marker);
    out.erase(std::remove_if(
                  out.begin(), out.end(),
                  [&markers](const Violation &v) {
                      auto it = markers.find(v.line);
                      if (it == markers.end())
                          return false;
                      return it->second.count(v.rule) != 0 ||
                             it->second.count("*") != 0;
                  }),
              out.end());
    std::stable_sort(out.begin(), out.end(),
                     [](const Violation &a, const Violation &b) {
                         return std::tie(a.file, a.line, a.rule) <
                                std::tie(b.file, b.line, b.rule);
                     });
    return out;
}

inline void
printViolations(std::FILE *to, const std::vector<Violation> &vs,
                const char *indent = "")
{
    for (const Violation &v : vs)
        std::fprintf(to, "%s%s:%d: [%s] %s\n", indent, v.file.c_str(),
                     v.line, v.rule.c_str(), v.message.c_str());
}

/** Clean when @p rule is null; otherwise at least one violation and
 *  every one of them of @p rule. */
inline bool
meetsExpectation(const std::vector<Violation> &vs, const char *rule)
{
    if (rule == nullptr)
        return vs.empty();
    return !vs.empty() &&
           std::all_of(vs.begin(), vs.end(), [rule](const Violation &v) {
               return v.rule == rule;
           });
}

inline int
selfTest(const Tool &tool)
{
    int failures = 0;
    for (const Case &c : tool.cases) {
        std::vector<Violation> vs =
            analyze(tool, c.scopePath, c.scopePath, c.code);
        if (meetsExpectation(vs, c.expectRule))
            continue;
        ++failures;
        std::fprintf(stderr, "self-test FAILED: %s (expected %s)\n",
                     c.name, c.expectRule ? c.expectRule : "clean");
        printViolations(stderr, vs, "  got ");
    }
    if (failures == 0) {
        std::printf("%s self-test: %zu cases passed\n", tool.name,
                    tool.cases.size());
        return 0;
    }
    std::fprintf(stderr, "%s self-test: %d/%zu case(s) failed\n",
                 tool.name, failures, tool.cases.size());
    return 1;
}

inline bool
checkable(const fs::path &p)
{
    std::string ext = p.extension().string();
    return ext == ".cc" || ext == ".hh";
}

inline bool
readFile(const fs::path &file, std::string &text)
{
    std::ifstream in(file, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "cannot read %s\n", file.string().c_str());
        return false;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    text = buf.str();
    return true;
}

/** The path scope-gated rules see: @p file relative to @p root, with
 *  everything through a "src" component dropped, so in-tree and
 *  out-of-tree invocations agree ("nvoverlay/omc.cc"). */
inline std::string
scopePathOf(const fs::path &file, const fs::path &root)
{
    std::error_code ec;
    fs::path rel = fs::relative(file, root, ec);
    if (ec || rel.empty())
        rel = file;
    std::vector<std::string> parts;
    for (const auto &comp : rel) {
        std::string s = comp.string();
        if (s != "." && s != "..")
            parts.push_back(s);
    }
    auto src = std::find(parts.begin(), parts.end(), "src");
    std::string joined;
    for (auto it = src == parts.end() ? parts.begin() : src + 1;
         it != parts.end(); ++it) {
        if (!joined.empty())
            joined += '/';
        joined += *it;
    }
    return joined;
}

/** Run every fixture in @p dir against the expectation its name
 *  encodes (see the file comment). */
inline int
runCorpus(const Tool &tool, const std::string &dir)
{
    std::error_code ec;
    std::vector<fs::path> fixtures;
    for (auto it = fs::directory_iterator(dir, ec);
         !ec && it != fs::directory_iterator(); ++it)
        if (it->is_regular_file() && checkable(it->path()))
            fixtures.push_back(it->path());
    if (ec || fixtures.empty()) {
        std::fprintf(stderr, "corpus %s: no fixtures\n", dir.c_str());
        return 2;
    }
    std::sort(fixtures.begin(), fixtures.end());

    int failures = 0;
    for (const fs::path &file : fixtures) {
        std::string name = file.filename().string();
        std::size_t dot = name.find('.');   // checkable: has one
        std::size_t dot2 = name.find('.', dot + 1);
        std::string rule = name.substr(0, dot);
        std::replace(rule.begin(), rule.end(), '_', '-');
        std::string verdict =
            name.substr(dot + 1, dot2 == std::string::npos
                                     ? std::string::npos
                                     : dot2 - dot - 1);
        if (verdict != "good" && verdict != "bad") {
            std::fprintf(stderr,
                         "corpus: %s: expected <rule>.<good|bad>...\n",
                         name.c_str());
            ++failures;
            continue;
        }
        std::string text;
        if (!readFile(file, text))
            return 2;

        std::string scope = name;
        std::istringstream head(text);
        std::string line;
        for (int n = 0; n < 5 && std::getline(head, line); ++n) {
            std::size_t pos = line.find("lint-path:");
            if (pos == std::string::npos)
                continue;
            std::istringstream(line.substr(pos + 10)) >> scope;
            break;
        }

        std::vector<Violation> vs =
            analyze(tool, file.generic_string(), scope, text);
        if (meetsExpectation(vs, verdict == "bad" ? rule.c_str()
                                                  : nullptr))
            continue;
        ++failures;
        std::fprintf(stderr, "corpus FAILED: %s (expected %s %s)\n",
                     name.c_str(), verdict.c_str(), rule.c_str());
        printViolations(stderr, vs, "  got ");
    }
    if (failures == 0) {
        std::printf("%s corpus: %zu fixture(s) passed\n", tool.name,
                    fixtures.size());
        return 0;
    }
    std::fprintf(stderr, "%s corpus: %d/%zu fixture(s) failed\n",
                 tool.name, failures, fixtures.size());
    return 1;
}

/** The command line: `[--allowlist FILE] [--self-test] [--corpus DIR]
 *  PATH...`, plus `--no-allowlist` and `--force-scope` for a tool
 *  with a scope. Violations go to stdout, one per line. */
inline int
run(const Tool &tool, int argc, char **argv)
{
    const bool scoped = tool.inScope != nullptr;
    std::string usage =
        std::string("usage: ") + tool.name +
        (scoped ? " [--allowlist FILE | --no-allowlist] [--force-scope]"
                : " [--allowlist FILE]") +
        " [--self-test] [--corpus DIR] PATH...\n";
    std::string allowlist_path;
    std::string corpus_dir;
    std::vector<std::string> roots;
    bool self_test = false;
    bool no_allowlist = false;
    bool force_scope = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--self-test") {
            self_test = true;
        } else if (arg == "--allowlist" || arg == "--corpus") {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs an argument\n",
                             arg.c_str());
                return 2;
            }
            std::string &dst =
                arg == "--corpus" ? corpus_dir : allowlist_path;
            dst = argv[++i];
        } else if (scoped && arg == "--no-allowlist") {
            no_allowlist = true;
        } else if (scoped && arg == "--force-scope") {
            force_scope = true;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "%s", usage.c_str());
            return 2;
        } else {
            roots.push_back(arg);
        }
    }

    if (self_test)
        return selfTest(tool);
    if (!corpus_dir.empty())
        return runCorpus(tool, corpus_dir);
    if (roots.empty()) {
        std::fprintf(stderr, "%s", usage.c_str());
        return 2;
    }

    std::vector<AllowEntry> allow;
    if (!no_allowlist) {
        if (allowlist_path.empty() && fs::exists(tool.allowlist))
            allowlist_path = tool.allowlist;
        if (!allowlist_path.empty()) {
            bool ok = false;
            allow = loadAllowlist(allowlist_path, ok);
            if (!ok) {
                std::fprintf(stderr, "cannot read allowlist %s\n",
                             allowlist_path.c_str());
                return 2;
            }
        }
    }

    std::vector<Violation> all;
    std::size_t files = 0;
    for (const std::string &root : roots) {
        fs::path rp(root);
        std::error_code ec;
        std::vector<fs::path> targets;
        bool dir = fs::is_directory(rp, ec);
        if (dir) {
            for (auto it = fs::recursive_directory_iterator(rp, ec);
                 !ec && it != fs::recursive_directory_iterator(); ++it)
                if (it->is_regular_file() && checkable(it->path()))
                    targets.push_back(it->path());
        } else if (fs::is_regular_file(rp, ec)) {
            targets.push_back(rp);
        } else {
            std::fprintf(stderr, "cannot open %s\n", root.c_str());
            return 2;
        }
        std::sort(targets.begin(), targets.end());
        for (const fs::path &file : targets) {
            std::string display = file.generic_string();
            if (scoped && !force_scope && !tool.inScope(display))
                continue;
            std::string text;
            if (!readFile(file, text))
                return 2;
            ++files;
            std::string scope = scopePathOf(file, dir ? rp : ".");
            for (Violation &v : analyze(tool, display, scope, text))
                if (!allowlisted(v, allow))
                    all.push_back(std::move(v));
        }
    }

    printViolations(stdout, all);
    if (!all.empty()) {
        std::fprintf(stderr, "%s: %zu violation(s) in %zu file(s)\n",
                     tool.name, all.size(), files);
        return 1;
    }
    std::printf("%s: %zu file(s) clean\n", tool.name, files);
    return 0;
}

} // namespace front

#endif // NVO_TOOLS_ANALYZER_FRONT_HH
