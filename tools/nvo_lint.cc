/**
 * @file
 * Repository lint pass for the NVOverlay simulator sources.
 *
 * Token rules the compiler cannot enforce, run over the shared
 * analyzer front end (analyzer_front.hh: lexer, suppression, corpus
 * and command line; see there for the flags and exit codes):
 *
 *  - epoch-compare:   no raw relational comparison of EpochId values;
 *                     16-bit epoch tags wrap (paper Sec. IV-D) and must
 *                     be compared through epoch::compareNarrow. Shifts
 *                     of an EpochId (epoch::group()) are not
 *                     comparisons.
 *  - epoch-narrow:    no static_cast<EpochId> outside
 *                     nvoverlay/epoch.hh; epoch::narrow is the one
 *                     sanctioned narrowing point.
 *  - include-guard:   guard macros must be NVO_<PATH>_HH derived from
 *                     the file's path (src/cache/llc.hh ->
 *                     NVO_CACHE_LLC_HH).
 *  - raw-new-delete:  no raw new/delete expressions; containers and
 *                     unique_ptr own everything except the master
 *                     table's radix nodes (master_table.cc), which are
 *                     allowlisted.
 *  - raw-io:          no direct console output (printf/std::cout and
 *                     friends) in src/; simulator output must flow
 *                     through common/log, the obs/ exporters, or the
 *                     harness table printer so machine-readable runs
 *                     stay clean. Those three locations are exempt.
 *  - asid-key:        multi-tenant tagging under src/nvoverlay/:
 *                     master-table insert/erase must take a tenant key
 *                     (built through tenant::keyOf / tenant::tag, which
 *                     carry the ASID in the tagged address) and
 *                     page-pool allocLines/freeLines must pass the
 *                     owning ASID — a mutation whose argument list
 *                     names nothing key- or asid-like is invisible to
 *                     per-tenant quota and write-amp accounting.
 *  - metric-registry: instrumented subsystems (nvoverlay/, par/,
 *                     repl/, tenant/) hold metric handles from the
 *                     registry, never a Histogram/HistMetric/Counter
 *                     by value.
 *
 * Suppression: tools/nvo_lint_allow.txt or an inline
 * "nvo-lint: allow(rule)" marker on the offending line. Corpus
 * fixtures live in tests/lint_corpus.
 */

#include <cctype>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analyzer_front.hh"

namespace
{

using front::Token;
using front::Violation;

/** nvo_lint's rules report no enclosing function. */
void
flag(std::vector<Violation> &out, const std::string &file, int line,
     const char *rule, std::string message)
{
    out.push_back({file, line, rule, std::move(message), {}});
}

std::string
expectedGuard(const std::string &guard_path)
{
    std::string g = "NVO_";
    for (char c : guard_path) {
        if (std::isalnum(static_cast<unsigned char>(c)))
            g += static_cast<char>(
                std::toupper(static_cast<unsigned char>(c)));
        else
            g += '_';
    }
    return g;
}

void
checkIncludeGuard(const std::string &display, const std::string &text,
                  const std::string &guard_path,
                  std::vector<Violation> &out)
{
    std::istringstream in(text);
    std::string line;
    int num = 0;
    std::string guard;
    int guard_line = 0;
    while (std::getline(in, line)) {
        ++num;
        std::size_t pos = line.find_first_not_of(" \t");
        if (pos == std::string::npos || line[pos] != '#')
            continue;
        std::istringstream ls(line.substr(pos + 1));
        std::string directive, name;
        ls >> directive >> name;
        if (directive == "ifndef") {
            guard = name;
            guard_line = num;
            break;
        }
        if (directive == "pragma")
            continue;
    }
    std::string want = expectedGuard(guard_path);
    if (guard.empty()) {
        flag(out, display, 1, "include-guard",
             "missing include guard (expected " + want + ")");
        return;
    }
    if (guard != want) {
        flag(out, display, guard_line, "include-guard",
             "guard " + guard + " does not match path (expected " +
                 want + ")");
    }
}

/** Whether the argument list opening at token @p open (a "(") names
 *  any identifier containing "key" or "asid" — the asid-key rule's
 *  evidence that a persistent-structure mutation is tenant-tagged. */
bool
argsCarryAsid(const std::vector<Token> &toks, std::size_t open)
{
    int pdepth = 0;
    for (std::size_t j = open; j < toks.size(); ++j) {
        if (toks[j].text == "(") {
            ++pdepth;
        } else if (toks[j].text == ")") {
            if (--pdepth == 0)
                break;
        } else if (toks[j].ident) {
            std::string low;
            for (char ch : toks[j].text)
                low += static_cast<char>(
                    std::tolower(static_cast<unsigned char>(ch)));
            if (low.find("key") != std::string::npos ||
                low.find("asid") != std::string::npos)
                return true;
        }
    }
    return false;
}

/** The lexer splits "<<" and ">>", so a '<' or '>' beside another of
 *  its direction is half of a shift, a shift-assign or a template's
 *  closing ">>" — never a comparison. @p i is not at either end. */
bool
shiftHalf(const std::vector<Token> &toks, std::size_t i)
{
    char dir = toks[i].text[0];
    return toks[i - 1].text == std::string(1, dir) ||
           toks[i + 1].text[0] == dir;
}

void
lintTokens(const std::string &display, const std::vector<Token> &toks,
           bool is_epoch_header, bool raw_io_exempt,
           bool persist_scope, bool metric_scope,
           std::vector<Violation> &out)
{
    // Pass 1: identifiers declared with type EpochId.
    std::set<std::string> epoch_ids;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (toks[i].text == "EpochId" && toks[i + 1].ident &&
            (i == 0 || toks[i - 1].text != "<"))
            epoch_ids.insert(toks[i + 1].text);
    }

    static const std::set<std::string> relops = {"<", ">", "<=", ">="};
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (t.str)
            continue;   // a literal's text is no code

        if (relops.count(t.text) && i > 0 && i + 1 < toks.size() &&
            !shiftHalf(toks, i)) {
            const Token &a = toks[i - 1];
            const Token &b = toks[i + 1];
            bool a_epoch = a.ident && epoch_ids.count(a.text);
            bool b_epoch = b.ident && epoch_ids.count(b.text);
            // `EpochId x` followed by a template/declaration angle
            // bracket never has an epoch variable on its left.
            if (a_epoch || b_epoch) {
                flag(out, display, t.line, "epoch-compare",
                     "raw relational comparison of EpochId values "
                     "(16-bit tags wrap; use epoch::compareNarrow)");
            }
        }

        if (t.text == "static_cast" && i + 3 < toks.size() &&
            toks[i + 1].text == "<" &&
            toks[i + 2].text == "EpochId" &&
            toks[i + 3].text == ">" && !is_epoch_header) {
            flag(out, display, t.line, "epoch-narrow",
                 "static_cast<EpochId> outside nvoverlay/epoch.hh "
                 "(narrow through epoch::narrow)");
        }

        static const std::set<std::string> raw_io = {
            "printf", "fprintf", "vprintf", "vfprintf",
            "puts",   "fputs",   "putchar", "fputc",
            "putc",   "cout",    "cerr",    "clog"};
        if (!raw_io_exempt && t.ident && raw_io.count(t.text)) {
            flag(out, display, t.line, "raw-io",
                 "direct console output (" + t.text +
                     "); route through common/log, obs/, or the "
                     "harness table printer");
        }

        // asid-key: master-table and page-pool mutations must carry
        // tenancy. A master key built away from tenant::keyOf/tag, or
        // a page-pool alloc/free without the owning ASID, silently
        // exits a line from per-tenant quota and write-amp accounting.
        static const std::set<std::string> master_names = {
            "master", "master_", "mt", "masterTable", "master_table"};
        static const std::set<std::string> master_muts = {"insert",
                                                          "erase"};
        if (persist_scope && t.ident && master_names.count(t.text) &&
            i + 3 < toks.size() &&
            (toks[i + 1].text == "." || toks[i + 1].text == "->") &&
            master_muts.count(toks[i + 2].text) &&
            toks[i + 3].text == "(" &&
            !argsCarryAsid(toks, i + 3)) {
            flag(out, display, t.line, "asid-key",
                 "master-table " + toks[i + 2].text + " with an "
                 "untagged key (build it with tenant::keyOf / "
                 "tenant::tag so the mutation carries its ASID)");
        }
        static const std::set<std::string> pool_muts = {"allocLines",
                                                        "freeLines"};
        if (persist_scope && t.ident && pool_muts.count(t.text) &&
            i > 0 &&
            (toks[i - 1].text == "." || toks[i - 1].text == "->") &&
            i + 1 < toks.size() && toks[i + 1].text == "(" &&
            !argsCarryAsid(toks, i + 1)) {
            flag(out, display, t.line, "asid-key",
                 t.text + "() without an owning ASID argument "
                 "(page-pool occupancy is accounted per tenant; "
                 "pass the caller's asid)");
        }

        // metric-registry: instrumented subsystems must hold metric
        // *handles* from obs::metricRegistry() (addCounter/addHist),
        // never own a Histogram/Counter by value — a privately owned
        // instrument is invisible to the exporter and to the stats
        // JSON `metrics` section.
        // Pointer declarations (`HistMetric *h`) and forward
        // declarations stay clean: the next token is not an ident.
        static const std::set<std::string> metric_types = {
            "Histogram", "HistMetric", "Counter"};
        if (metric_scope && t.ident && metric_types.count(t.text) &&
            i + 1 < toks.size() && toks[i + 1].ident) {
            flag(out, display, t.line, "metric-registry",
                 "by-value " + t.text + " construction outside the "
                 "registry (hold a handle from obs::metricRegistry()"
                 ".addCounter/addHist so the exporter sees it)");
        }

        if (t.text == "new") {
            flag(out, display, t.line, "raw-new-delete",
                 "raw new expression (own memory with containers or "
                 "unique_ptr)");
        }
        if (t.text == "delete") {
            // `= delete`d members and `operator delete` are fine.
            bool deleted_member = i > 0 && toks[i - 1].text == "=";
            bool op_decl = i > 0 && toks[i - 1].text == "operator";
            if (!deleted_member && !op_decl)
                flag(out, display, t.line, "raw-new-delete",
                     "raw delete expression");
        }
    }
}

/** The rules over one file; @p scope (the path below src/) decides
 *  the expected include guard and which scoped rules apply. */
std::vector<Violation>
lintRules(const std::string &display, const std::string &scope,
          const std::string &text)
{
    std::vector<Violation> out;
    bool is_header =
        scope.size() > 3 && scope.substr(scope.size() - 3) == ".hh";
    bool is_epoch_header = scope == "nvoverlay/epoch.hh";
    bool raw_io_exempt = scope.rfind("obs/", 0) == 0 ||
                         scope.rfind("common/log", 0) == 0 ||
                         scope.rfind("harness/table_printer", 0) == 0;
    bool persist_scope = scope.rfind("nvoverlay/", 0) == 0;
    bool metric_scope = persist_scope || scope.rfind("par/", 0) == 0 ||
                        scope.rfind("repl/", 0) == 0 ||
                        scope.rfind("tenant/", 0) == 0;
    if (is_header)
        checkIncludeGuard(display, text, scope, out);
    lintTokens(display, front::tokenize(text), is_epoch_header,
               raw_io_exempt, persist_scope, metric_scope, out);
    return out;
}

/** Seeded violations: each rule caught, each exemption honoured. */
const std::vector<front::Case> kSelfTest = {
    {"epoch compare flagged", "nvoverlay/foo.cc",
     "void f(EpochId a, EpochId b) { if (a < b) {} }\n",
     "epoch-compare"},
    {"epoch compare vs literal flagged", "nvoverlay/foo.cc",
     "bool g(EpochId tag) { return tag >= 5; }\n",
     "epoch-compare"},
    {"compareNarrow is clean", "nvoverlay/foo.cc",
     "bool h(EpochId a, EpochId b)\n"
     "{ return epoch::compareNarrow(a, b) < 0; }\n",
     nullptr},
    {"EpochId right shift is clean", "nvoverlay/foo.cc",
     "int g(EpochId n) { return (n >> 15) & 1; }\n",
     nullptr},
    {"EpochId left shift is clean", "nvoverlay/foo.cc",
     "int g(EpochId n) { return (n << 15) & 1; }\n",
     nullptr},
    {"EpochId shift-assign is clean", "nvoverlay/foo.cc",
     "void g(EpochId n) { n >>= 1; }\n",
     nullptr},
    {"narrowing cast flagged", "nvoverlay/foo.cc",
     "EpochId n(EpochWide e) { return static_cast<EpochId>(e); }\n",
     "epoch-narrow"},
    {"narrowing cast allowed in epoch.hh", "nvoverlay/epoch.hh",
     "#ifndef NVO_NVOVERLAY_EPOCH_HH\n"
     "#define NVO_NVOVERLAY_EPOCH_HH\n"
     "inline EpochId n(EpochWide e)\n"
     "{ return static_cast<EpochId>(e); }\n"
     "#endif\n",
     nullptr},
    {"wrong include guard flagged", "cache/llc.hh",
     "#ifndef LLC_HH\n#define LLC_HH\n#endif\n",
     "include-guard"},
    {"matching include guard clean", "cache/llc.hh",
     "#ifndef NVO_CACHE_LLC_HH\n#define NVO_CACHE_LLC_HH\n"
     "#endif\n",
     nullptr},
    {"raw new flagged", "common/foo.cc",
     "int *leak() { return new int(7); }\n",
     "raw-new-delete"},
    {"assigned new flagged", "common/foo.cc",
     "void f(int *&p) { p = new int; }\n",
     "raw-new-delete"},
    {"raw delete flagged", "common/foo.cc",
     "void f(int *p) { delete p; }\n",
     "raw-new-delete"},
    {"deleted member is clean", "common/foo.cc",
     "struct A { A(const A &) = delete; };\n",
     nullptr},
    {"comment mentioning new is clean", "common/foo.cc",
     "// a new epoch starts here; delete nothing\n"
     "int x = 0;\n",
     nullptr},
    {"string mentioning delete is clean", "common/foo.cc",
     "const char *s = \"new delete if (a < b)\";\n",
     nullptr},
    {"block comment mentioning new is clean", "common/foo.cc",
     "/* new delete printf */ int x = 0;\n",
     nullptr},
    {"code sharing a line with a block comment fires",
     "common/foo.cc",
     "/* harmless */ int *p = new int;\n",
     "raw-new-delete"},
    {"raw string mentioning violations is clean", "common/foo.cc",
     "const char *s = R\"(new delete printf if (a < b))\";\n",
     nullptr},
    {"delimited raw string with quote is clean", "common/foo.cc",
     "const char *s = uR\"x(quote \" paren ) new)x\";\n"
     "int y = 0;\n",
     nullptr},
    {"code after a raw string on the same line fires",
     "common/foo.cc",
     "const char *s = R\"(x)\"; int *p = new int;\n",
     "raw-new-delete"},
    {"raw string quote does not swallow later code",
     "common/foo.cc",
     "const char *s = R\"(\")\";\n"
     "void f(int *p) { delete p; }\n",
     "raw-new-delete"},
    {"inline allow marker suppresses", "common/foo.cc",
     "int *p = new int;   // nvo-lint: allow(raw-new-delete)\n",
     nullptr},
    {"raw printf flagged", "cache/foo.cc",
     "void f() { printf(\"%d\", 1); }\n",
     "raw-io"},
    {"std::cout flagged", "nvoverlay/foo.cc",
     "void f() { std::cout << 1; }\n",
     "raw-io"},
    {"fprintf to stderr flagged", "mem/foo.cc",
     "void f() { std::fprintf(stderr, \"x\"); }\n",
     "raw-io"},
    {"printf exempt under obs/", "obs/foo.cc",
     "void f() { std::printf(\"%d\", 1); }\n",
     nullptr},
    {"printf exempt in common/log", "common/log.cc",
     "void f() { std::vfprintf(stderr, \"x\", {}); }\n",
     nullptr},
    {"printf exempt in table printer", "harness/table_printer.cc",
     "void f() { std::printf(\"x\"); }\n",
     nullptr},
    {"string mentioning printf is clean", "cache/foo.cc",
     "const char *s = \"printf cout\";\n",
     nullptr},
    {"raw-io allow marker suppresses", "cache/foo.cc",
     "void f() { puts(\"x\"); }  // nvo-lint: allow(raw-io)\n",
     nullptr},
    {"untagged master insert flagged", "nvoverlay/foo.cc",
     "void f() { master.insert(a, nvm, e); }\n",
     "asid-key"},
    {"keyOf-tagged master insert is clean", "nvoverlay/foo.cc",
     "void f() { master.insert(tenant::keyOf(a), nvm, e); }\n",
     nullptr},
    {"asid-named erase argument is clean", "nvoverlay/foo.cc",
     "void f() { mt->erase(asid_line); }\n",
     nullptr},
    {"allocLines without asid flagged", "nvoverlay/foo.cc",
     "void f() { pool.allocLines(4); }\n",
     "asid-key"},
    {"allocLines with asid is clean", "nvoverlay/foo.cc",
     "void f() { pool.allocLines(4, asid); }\n",
     nullptr},
    {"freeLines without asid flagged", "nvoverlay/foo.cc",
     "void f() { part.pool->freeLines(addr, n); }\n",
     "asid-key"},
    {"pool mutation outside nvoverlay is clean", "baselines/foo.cc",
     "void f() { pool.allocLines(4); }\n",
     nullptr},
    {"asid-key allow marker suppresses", "nvoverlay/foo.cc",
     "void f() { pool.allocLines(4); }"
     "  // nvo-lint: allow(asid-key)\n",
     nullptr},
    {"by-value Histogram flagged in nvoverlay", "nvoverlay/foo.cc",
     "struct S { Histogram walkDepth; };\n",
     "metric-registry"},
    {"by-value Counter flagged in repl", "repl/foo.cc",
     "void f() { Counter retries; }\n",
     "metric-registry"},
    {"by-value HistMetric flagged in tenant", "tenant/foo.cc",
     "struct S { obs::HistMetric stall; };\n",
     "metric-registry"},
    {"registry handle pointer is clean", "par/foo.cc",
     "struct S { obs::HistMetric *hRing = nullptr; };\n",
     nullptr},
    {"metric forward declaration is clean", "nvoverlay/foo.cc",
     "namespace obs { struct HistMetric; struct Counter; }\n",
     nullptr},
    {"by-value Histogram outside the scoped dirs is clean",
     "obs/foo.cc",
     "struct S { Histogram h; };\n",
     nullptr},
    {"metric-registry allow marker suppresses", "nvoverlay/foo.cc",
     "struct S { Histogram h; };"
     "  // nvo-lint: allow(metric-registry)\n",
     nullptr},
};

} // namespace

int
main(int argc, char **argv)
{
    return front::run({.name = "nvo_lint",
                       .marker = "nvo-lint: allow(",
                       .allowlist = "tools/nvo_lint_allow.txt",
                       .rules = lintRules,
                       .cases = kSelfTest,
                       .inScope = nullptr},
                      argc, argv);
}
