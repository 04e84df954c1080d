/**
 * @file
 * Flow-aware structural analyzer for the NVOverlay persist protocol.
 *
 * Where nvo_lint greps tokens, nvo_check builds a per-function
 * statement tree, abstract-interprets every intra-procedural path,
 * and summarizes functions so rules see through calls within a
 * translation unit. Rules (scope: src/nvoverlay/ and src/repl/):
 *
 *  - persist-order:  on every path, a persist-domain write to pool /
 *                    master / cursor state must reach a
 *                    `persist().barrier()` before the rec-epoch word
 *                    or replication cursor is published (an
 *                    assignment to a `durable*_` shadow). This is the
 *                    paper's Sec. V-B fence, the invariant the seeded
 *                    `mnm.test_skip_rec_barrier` bug breaks at run
 *                    time — caught here statically.
 *  - fault-coverage: every durable-mutation site (persist write or
 *                    durable publish) must be dominated by an
 *                    NVO_FAULT_POINT / NVO_FAULT_ERROR hook, so the
 *                    crash campaigns can cut power on its path.
 *  - persist-domain: a direct `<nvm model>.write(...)` bypassing
 *                    `.persist()` is flagged wherever it syntactically
 *                    hides.
 *  - ledger-hook:    master table insert/erase is legal only inside
 *                    masterInsert (or lambdas defined there), and
 *                    sub-page dropHeader only inside reclaimSubPage;
 *                    a wrapper function does not launder the call.
 *
 * The analysis tracks, per path, a pair of booleans for each fact
 * ("assuming the caller entered clean" / "assuming the caller
 * entered dirty"), which yields function summaries — may-leave-
 * unfenced, must-clear, must-fault-at-exit, entry-dependent publish
 * or durable site — applied at call sites and iterated to a
 * fixpoint, so a violation whose write and publish live in
 * different functions is still reported (at the call site).
 *
 * Lexing, suppression, the corpus and the command line are the
 * shared analyzer front end (analyzer_front.hh; flags and exit codes
 * are documented there). Suppression: tools/nvo_check_allow.txt, whose
 * entries may name a function ("<rule> <path-suffix>:<function>"), or
 * an inline "nvo-check: allow(rule)" marker on the offending line.
 * Tree runs visit only src/nvoverlay/ and src/repl/ unless
 * --force-scope; fixtures live in tests/check_corpus (see its
 * README.md).
 */

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "analyzer_front.hh"

namespace
{

using front::Token;
using front::Violation;

// -------------------------------------------------------------------
// IR: one statement tree per function, actions at the leaves.
// -------------------------------------------------------------------

enum class Act
{
    PersistWrite,   // nvm.persist().write(...) or via alias
    RawNvmWrite,    // nvm.write(...) bypassing the domain
    Barrier,        // nvm.persist().barrier()
    Publish,        // durable*_ = ...
    FaultHook,      // NVO_FAULT_POINT / NVO_FAULT_ERROR
    MasterMut,      // master-table insert/erase
    DropHeader,     // sub-page header drop
    Call,           // any other call, by unqualified name
    LambdaDef       // lambda literal defined here
};

struct Action
{
    Act kind = Act::Call;
    std::string name;   // hook name, callee, published member
    int line = 0;
    int lambda = -1;    // index into the TU function list
};

struct Node
{
    enum class K
    {
        Seq,      // kids in order
        Branch,   // kids = {cond, then[, else]}
        Loop,     // kids = {cond, body}; bodyFirst for do-while
        Act,      // act
        Ret       // return / throw: path ends
    };
    K k = K::Seq;
    std::vector<std::unique_ptr<Node>> kids;
    Action act;
    bool bodyFirst = false;
};

using NodePtr = std::unique_ptr<Node>;

NodePtr
mkNode(Node::K k)
{
    auto n = std::make_unique<Node>();
    n->k = k;
    return n;
}

struct Fn
{
    std::string qual;       // MnmBackend::persistRecEpoch
    std::string bare;       // persistRecEpoch
    std::string sanction;   // bare; for lambdas the enclosing bare
    std::string file;
    int line = 0;
    bool lambda = false;
    NodePtr body;

    // Lambda entry seeds, set at the definition site each pass.
    bool defUfF = false, defUfT = true;
    bool defMfF = false, defMfT = true;

    // Summary (clean-entry exit facts + entry dependences).
    bool mayLeaveUnfenced = false;
    bool clearsUnfenced = false;
    bool mustFaultAtExit = false;
    bool pubEntryDep = false;
    bool faultEntryDep = false;
    int pubDepLine = 0;
    int faultDepLine = 0;
    int callers = 0;
};

// -------------------------------------------------------------------
// Structural parser: token stream -> functions with statement
// trees. Approximate by design — it only has to recognize the
// constructs the rules care about and keep control flow honest.
// -------------------------------------------------------------------

const std::set<std::string> kNvmNames = {"nvm", "nvm_", "nvmModel",
                                         "nvm_model"};
const std::set<std::string> kDomainNames = {"pd", "domain", "domain_",
                                            "persist_"};
const std::set<std::string> kMasterNames = {
    "master", "master_", "mt", "masterTable", "master_table"};
const std::set<std::string> kStmtKeywords = {
    "if",     "while",  "for",    "switch",   "return", "do",
    "else",   "case",   "default","break",    "continue", "try",
    "catch",  "throw",  "goto",   "new",      "delete", "sizeof",
    "alignof","decltype","noexcept","static_assert", "co_return",
    "co_await", "co_yield", "operator", "this"};

struct Tu
{
    std::string display;
    std::vector<std::unique_ptr<Fn>> fns;
};

/** Index of the bracket matching t[i] (same-kind counting). */
std::size_t
matchBracket(const std::vector<Token> &t, std::size_t i)
{
    const std::string &open = t[i].text;
    std::string close = open == "(" ? ")" : open == "[" ? "]" : "}";
    int depth = 0;
    for (std::size_t j = i; j < t.size(); ++j) {
        if (t[j].text == open)
            ++depth;
        else if (t[j].text == close && --depth == 0)
            return j;
    }
    return t.size() - 1;
}

struct Extractor
{
    const std::vector<Token> &t;
    Tu &tu;

    void
    run()
    {
        scanScope(0, t.size(), "");
    }

    /** Skip a `template <...>` preamble; returns index past '>'. */
    std::size_t
    skipTemplate(std::size_t i, std::size_t end)
    {
        ++i;   // 'template'
        if (i >= end || t[i].text != "<")
            return i;
        int depth = 0;
        for (; i < end; ++i) {
            if (t[i].text == "<")
                ++depth;
            else if (t[i].text == ">" && --depth == 0)
                return i + 1;
        }
        return end;
    }

    /**
     * Scan declarations at namespace/class scope; ctx is the class
     * qualifier ("" at namespace scope). Recognizes function bodies
     * and recurses into namespaces and class definitions.
     */
    void
    scanScope(std::size_t i, std::size_t end, const std::string &ctx)
    {
        while (i < end) {
            const std::string &x = t[i].text;
            if (x == "template") {
                i = skipTemplate(i, end);
                continue;
            }
            if (x == "namespace") {
                std::size_t j = i + 1;
                while (j < end &&
                       (t[j].ident || t[j].text == "::"))
                    ++j;
                if (j < end && t[j].text == "{") {
                    std::size_t c = matchBracket(t, j);
                    scanScope(j + 1, c, ctx);
                    i = c + 1;
                } else {
                    i = j + 1;
                }
                continue;
            }
            if ((x == "class" || x == "struct" || x == "union") &&
                (i == 0 || t[i - 1].text != "enum")) {
                std::size_t j = i + 1;
                std::string name;
                while (j < end && t[j].text != "{" &&
                       t[j].text != ";" && t[j].text != ":" &&
                       t[j].text != "=") {
                    if (t[j].text == "(" || t[j].text == "[") {
                        j = matchBracket(t, j) + 1;
                        continue;
                    }
                    if (t[j].ident && t[j].text != "final" &&
                        t[j].text != "alignas")
                        name = t[j].text;
                    ++j;
                }
                if (j < end && t[j].text == ":") {
                    while (j < end && t[j].text != "{" &&
                           t[j].text != ";")
                        ++j;
                }
                if (j < end && t[j].text == "{") {
                    std::size_t c = matchBracket(t, j);
                    std::string sub =
                        ctx.empty() ? name : ctx + "::" + name;
                    scanScope(j + 1, c, name.empty() ? ctx : sub);
                    i = c + 1;
                } else {
                    i = j + 1;
                }
                continue;
            }
            if (x == "enum") {
                std::size_t j = i + 1;
                while (j < end && t[j].text != "{" &&
                       t[j].text != ";")
                    ++j;
                i = (j < end && t[j].text == "{")
                        ? matchBracket(t, j) + 1
                        : j + 1;
                continue;
            }
            if (x == "(") {
                i = tryFunction(i, end, ctx);
                continue;
            }
            ++i;
        }
    }

    /**
     * t[i] is '(' at declaration scope: either a function definition
     * (name precedes, body follows) or a group to skip. Returns the
     * index to resume scanning at.
     */
    std::size_t
    tryFunction(std::size_t i, std::size_t end, const std::string &ctx)
    {
        std::size_t close = matchBracket(t, i);
        std::string qual = nameBefore(i);
        if (qual.empty())
            return close + 1;

        // Walk past trailing qualifiers to find the body (or learn
        // this is just a declaration).
        std::size_t j = close + 1;
        while (j < end) {
            const std::string &y = t[j].text;
            if (y == "{" || y == ";" || y == "," || y == "=" ||
                y == ")" || y == "}")
                break;
            if (y == ":")
                break;   // ctor-init list
            if (y == "(" || y == "[") {
                j = matchBracket(t, j) + 1;
                continue;
            }
            ++j;
        }
        if (j < end && t[j].text == ":") {
            // Ctor-init list: the body '{' directly follows a ')' or
            // '}' that closed the last initializer.
            ++j;
            while (j < end) {
                if (t[j].text == "(" || t[j].text == "[") {
                    j = matchBracket(t, j) + 1;
                    continue;
                }
                if (t[j].text == "{") {
                    const std::string &prev = t[j - 1].text;
                    if (prev == ")" || prev == "}")
                        break;   // body
                    j = matchBracket(t, j) + 1;   // brace init
                    continue;
                }
                if (t[j].text == ";")
                    break;
                ++j;
            }
        }
        if (j >= end || t[j].text != "{")
            return close + 1;

        std::size_t bodyClose = matchBracket(t, j);
        auto fn = std::make_unique<Fn>();
        fn->qual = (ctx.empty() || qual.find("::") != std::string::npos)
                       ? qual
                       : ctx + "::" + qual;
        std::size_t sep = fn->qual.rfind("::");
        fn->bare = sep == std::string::npos
                       ? fn->qual
                       : fn->qual.substr(sep + 2);
        fn->sanction = fn->bare;
        fn->file = tu.display;
        fn->line = t[i].line;
        Fn *raw = fn.get();
        tu.fns.push_back(std::move(fn));
        parseBody(raw, j + 1, bodyClose);
        return bodyClose + 1;
    }

    /** Qualified name ending just before the '(' at i, or "". */
    std::string
    nameBefore(std::size_t i)
    {
        if (i == 0)
            return "";
        std::size_t k = i - 1;
        if (!t[k].ident) {
            // operator==(...) / operator()(...) forms.
            for (std::size_t back = 0; back < 3 && k > back; ++back)
                if (t[k - back].text == "operator")
                    return "operator";
            return "";
        }
        if (kStmtKeywords.count(t[k].text))
            return "";
        std::string name = t[k].text;
        while (k >= 2 && t[k - 1].text == "::" && t[k - 2].ident) {
            name = t[k - 2].text + "::" + name;
            k -= 2;
        }
        if (k >= 1 && t[k - 1].text == "~")
            name = "~" + name;
        // A member access before the name means this is a call
        // expression, not a definition.
        if (k >= 1 &&
            (t[k - 1].text == "." || t[k - 1].text == "->"))
            return "";
        return name;
    }

    void parseBody(Fn *fn, std::size_t i, std::size_t end);
};

/**
 * Parses one function body into the statement IR, registering lambda
 * bodies as separate functions and tracking persist-domain / master
 * aliases declared along the way.
 */
struct StmtParser
{
    const std::vector<Token> &t;
    Extractor &ex;
    Fn *fn;
    std::set<std::string> domainAliases;
    std::set<std::string> masterAliases;

    NodePtr
    parseSeq(std::size_t i, std::size_t end)
    {
        NodePtr seq = mkNode(Node::K::Seq);
        while (i < end)
            i = parseOne(i, end, seq.get());
        return seq;
    }

    /** Parse one statement starting at i; returns the next index. */
    std::size_t
    parseOne(std::size_t i, std::size_t end, Node *seq)
    {
        if (i >= end)
            return end;
        const std::string &x = t[i].text;
        if (x == ";" || x == "else")
            return i + 1;
        if (x == "{") {
            std::size_t c = matchBracket(t, i);
            seq->kids.push_back(parseSeq(i + 1, std::min(c, end)));
            return c + 1;
        }
        if (x == "if") {
            std::size_t open = i + 1;
            if (open < end && t[open].text == "constexpr")
                ++open;
            if (open >= end || t[open].text != "(")
                return i + 1;
            std::size_t close = matchBracket(t, open);
            NodePtr br = mkNode(Node::K::Branch);
            br->kids.push_back(scanRange(open + 1, close));
            NodePtr thenSeq = mkNode(Node::K::Seq);
            std::size_t ni =
                parseOne(close + 1, end, thenSeq.get());
            br->kids.push_back(std::move(thenSeq));
            if (ni < end && t[ni].text == "else") {
                NodePtr elseSeq = mkNode(Node::K::Seq);
                ni = parseOne(ni + 1, end, elseSeq.get());
                br->kids.push_back(std::move(elseSeq));
            }
            seq->kids.push_back(std::move(br));
            return ni;
        }
        if (x == "while") {
            if (i + 1 >= end || t[i + 1].text != "(")
                return i + 1;
            std::size_t close = matchBracket(t, i + 1);
            NodePtr loop = mkNode(Node::K::Loop);
            loop->kids.push_back(scanRange(i + 2, close));
            NodePtr body = mkNode(Node::K::Seq);
            std::size_t ni = parseOne(close + 1, end, body.get());
            loop->kids.push_back(std::move(body));
            seq->kids.push_back(std::move(loop));
            return ni;
        }
        if (x == "do") {
            NodePtr body = mkNode(Node::K::Seq);
            std::size_t ni = parseOne(i + 1, end, body.get());
            NodePtr loop = mkNode(Node::K::Loop);
            loop->bodyFirst = true;
            if (ni < end && t[ni].text == "while" && ni + 1 < end &&
                t[ni + 1].text == "(") {
                std::size_t close = matchBracket(t, ni + 1);
                loop->kids.push_back(scanRange(ni + 2, close));
                ni = close + 1;
                if (ni < end && t[ni].text == ";")
                    ++ni;
            } else {
                loop->kids.push_back(mkNode(Node::K::Seq));
            }
            loop->kids.push_back(std::move(body));
            seq->kids.push_back(std::move(loop));
            return ni;
        }
        if (x == "for") {
            if (i + 1 >= end || t[i + 1].text != "(")
                return i + 1;
            std::size_t close = matchBracket(t, i + 1);
            NodePtr loop = mkNode(Node::K::Loop);
            loop->kids.push_back(scanRange(i + 2, close));
            NodePtr body = mkNode(Node::K::Seq);
            std::size_t ni = parseOne(close + 1, end, body.get());
            loop->kids.push_back(std::move(body));
            seq->kids.push_back(std::move(loop));
            return ni;
        }
        if (x == "switch") {
            if (i + 1 >= end || t[i + 1].text != "(")
                return i + 1;
            std::size_t close = matchBracket(t, i + 1);
            NodePtr br = mkNode(Node::K::Branch);
            br->kids.push_back(scanRange(i + 2, close));
            NodePtr body = mkNode(Node::K::Seq);
            std::size_t ni = parseOne(close + 1, end, body.get());
            // Conservative: the body may or may not run (no else).
            br->kids.push_back(std::move(body));
            seq->kids.push_back(std::move(br));
            return ni;
        }
        if (x == "case") {
            std::size_t j = i + 1;
            while (j < end && t[j].text != ":")
                ++j;
            return j + 1;
        }
        if (x == "default" && i + 1 < end && t[i + 1].text == ":")
            return i + 2;
        if (x == "return" || x == "throw") {
            std::size_t stop = stmtEnd(i + 1, end);
            seq->kids.push_back(scanRange(i + 1, stop));
            seq->kids.push_back(mkNode(Node::K::Ret));
            return stop + 1;
        }
        if (x == "break" || x == "continue" || x == "goto") {
            std::size_t j = i;
            while (j < end && t[j].text != ";")
                ++j;
            return j + 1;
        }
        if (x == "try")
            return i + 1;
        if (x == "catch") {
            // Handler may or may not run: branch without else.
            std::size_t j = i + 1;
            if (j < end && t[j].text == "(")
                j = matchBracket(t, j) + 1;
            NodePtr br = mkNode(Node::K::Branch);
            br->kids.push_back(mkNode(Node::K::Seq));
            NodePtr body = mkNode(Node::K::Seq);
            std::size_t ni = parseOne(j, end, body.get());
            br->kids.push_back(std::move(body));
            seq->kids.push_back(std::move(br));
            return ni;
        }
        // Flat statement.
        std::size_t stop = stmtEnd(i, end);
        registerAliases(i, stop);
        seq->kids.push_back(scanRange(i, stop));
        return stop + 1;
    }

    /** First ';' at bracket depth zero in [i, end). */
    std::size_t
    stmtEnd(std::size_t i, std::size_t end)
    {
        while (i < end) {
            const std::string &x = t[i].text;
            if (x == ";")
                return i;
            if (x == "(" || x == "[" || x == "{") {
                i = matchBracket(t, i) + 1;
                continue;
            }
            if (x == ")" || x == "}")
                return i;   // malformed; stop at enclosing close
            ++i;
        }
        return end;
    }

    /**
     * Alias declarations: `PersistDomain &d = nvm.persist();` makes d
     * a domain alias; a declaration whose initializer mentions the
     * master table makes the declared name a master alias.
     */
    void
    registerAliases(std::size_t i, std::size_t stop)
    {
        std::size_t eq = stop;
        for (std::size_t j = i; j < stop; ++j) {
            const std::string &x = t[j].text;
            if (x == "(" || x == "[" || x == "{") {
                j = matchBracket(t, j);
                continue;
            }
            if (x == "=") {
                eq = j;
                break;
            }
        }
        if (eq == stop || eq == i || !t[eq - 1].ident)
            return;
        const std::string &name = t[eq - 1].text;
        if (stop >= 4 && t[stop - 1].text == ")" &&
            t[stop - 2].text == "(" &&
            t[stop - 3].text == "persist") {
            domainAliases.insert(name);
            return;
        }
        for (std::size_t j = eq + 1; j < stop; ++j)
            if (t[j].ident && kMasterNames.count(t[j].text)) {
                masterAliases.insert(name);
                return;
            }
    }

    /** Scan an expression token range into a Seq of actions. */
    NodePtr
    scanRange(std::size_t i, std::size_t end)
    {
        NodePtr seq = mkNode(Node::K::Seq);
        scanInto(i, end, seq.get());
        return seq;
    }

    void
    addAct(Node *seq, Act kind, const std::string &name, int line,
           int lambda = -1)
    {
        NodePtr n = mkNode(Node::K::Act);
        n->act = {kind, name, line, lambda};
        seq->kids.push_back(std::move(n));
    }

    void
    scanInto(std::size_t i, std::size_t end, Node *seq)
    {
        while (i < end) {
            const Token &tok = t[i];
            const std::string &x = tok.text;
            auto at = [&](std::size_t k) -> const std::string & {
                static const std::string empty;
                return k < end ? t[k].text : empty;
            };

            if (x == "{") {
                std::size_t c = matchBracket(t, i);
                scanInto(i + 1, std::min(c, end), seq);
                i = c + 1;
                continue;
            }
            if (x == "[") {
                if (at(i + 1) == "[") {
                    // [[attribute]]
                    std::size_t c = matchBracket(t, i + 1);
                    i = (c + 1 < end && t[c + 1].text == "]")
                            ? c + 2
                            : c + 1;
                    continue;
                }
                const std::string &prev =
                    i > 0 ? t[i - 1].text : std::string();
                bool subscript =
                    !prev.empty() &&
                    (t[i - 1].ident || prev == "]" || prev == ")");
                if (subscript) {
                    // Scan the index expression, keep going after.
                    std::size_t c = matchBracket(t, i);
                    scanInto(i + 1, std::min(c, end), seq);
                    i = c + 1;
                    continue;
                }
                i = tryLambda(i, end, seq);
                continue;
            }
            if ((x == "NVO_FAULT_POINT" || x == "NVO_FAULT_ERROR") &&
                at(i + 1) == "(" && i + 2 < end && t[i + 2].str) {
                addAct(seq, Act::FaultHook, t[i + 2].text, tok.line);
                i += 3;
                continue;
            }
            if (tok.ident && kNvmNames.count(x)) {
                if (at(i + 1) == "." && at(i + 2) == "persist" &&
                    at(i + 3) == "(" && at(i + 4) == ")" &&
                    at(i + 5) == "." && at(i + 7) == "(") {
                    const std::string &m = at(i + 6);
                    if (m == "write") {
                        addAct(seq, Act::PersistWrite, m,
                               t[i + 6].line);
                        i += 8;
                        continue;
                    }
                    if (m == "barrier") {
                        addAct(seq, Act::Barrier, m, t[i + 6].line);
                        i += 8;
                        continue;
                    }
                }
                if (at(i + 1) == "." && at(i + 2) == "write" &&
                    at(i + 3) == "(") {
                    addAct(seq, Act::RawNvmWrite, x, t[i + 2].line);
                    i += 4;
                    continue;
                }
            }
            if (tok.ident &&
                (kDomainNames.count(x) || domainAliases.count(x)) &&
                (at(i + 1) == "." || at(i + 1) == "->") &&
                at(i + 3) == "(") {
                const std::string &m = at(i + 2);
                if (m == "write") {
                    addAct(seq, Act::PersistWrite, m, t[i + 2].line);
                    i += 4;
                    continue;
                }
                if (m == "barrier") {
                    addAct(seq, Act::Barrier, m, t[i + 2].line);
                    i += 4;
                    continue;
                }
            }
            if (tok.ident && x.rfind("durable", 0) == 0 &&
                x.size() > 7 && x.back() == '_' &&
                at(i + 1) == "=") {
                addAct(seq, Act::Publish, x, tok.line);
                i += 2;
                continue;
            }
            if (tok.ident &&
                (kMasterNames.count(x) || masterAliases.count(x)) &&
                (at(i + 1) == "." || at(i + 1) == "->") &&
                (at(i + 2) == "insert" || at(i + 2) == "erase") &&
                at(i + 3) == "(") {
                addAct(seq, Act::MasterMut, at(i + 2), t[i + 2].line);
                i += 4;
                continue;
            }
            if (x == "dropHeader" && i > 0 &&
                (t[i - 1].text == "." || t[i - 1].text == "->") &&
                at(i + 1) == "(") {
                addAct(seq, Act::DropHeader, x, tok.line);
                i += 2;
                continue;
            }
            if (tok.ident && at(i + 1) == "(" &&
                !kStmtKeywords.count(x)) {
                addAct(seq, Act::Call, x, tok.line);
                i += 2;
                continue;
            }
            ++i;
        }
    }

    /**
     * t[i] is '[' opening a capture list (maybe). On a real lambda,
     * registers the body as a new function (sanctioned under the
     * enclosing one), emits a LambdaDef, and returns the index past
     * the body. Otherwise returns i + 1.
     */
    std::size_t
    tryLambda(std::size_t i, std::size_t end, Node *seq)
    {
        std::size_t close = matchBracket(t, i);
        if (close >= end)
            return i + 1;
        std::size_t j = close + 1;
        if (j < end && t[j].text == "(")
            j = matchBracket(t, j) + 1;
        while (j < end &&
               (t[j].text == "mutable" || t[j].text == "constexpr" ||
                t[j].text == "noexcept" || t[j].text == "->" ||
                t[j].ident || t[j].text == "::" || t[j].text == "*" ||
                t[j].text == "&" || t[j].text == "<" ||
                t[j].text == ">")) {
            if (t[j].text == "noexcept" && j + 1 < end &&
                t[j + 1].text == "(") {
                j = matchBracket(t, j + 1) + 1;
                continue;
            }
            ++j;
        }
        if (j >= end || t[j].text != "{")
            return i + 1;
        std::size_t bodyClose = matchBracket(t, j);

        auto lam = std::make_unique<Fn>();
        lam->qual = fn->qual + "::<lambda:" +
                    std::to_string(t[i].line) + ">";
        lam->bare = lam->qual;
        lam->sanction = fn->sanction;
        lam->file = fn->file;
        lam->line = t[i].line;
        lam->lambda = true;
        Fn *raw = lam.get();
        ex.tu.fns.push_back(std::move(lam));
        int idx = static_cast<int>(ex.tu.fns.size()) - 1;

        StmtParser sub{t, ex, raw, domainAliases, masterAliases};
        raw->body = sub.parseSeq(j + 1, bodyClose);
        addAct(seq, Act::LambdaDef, raw->qual, t[i].line, idx);
        return bodyClose + 1;
    }
};

void
Extractor::parseBody(Fn *fn, std::size_t i, std::size_t end)
{
    StmtParser p{t, *this, fn, {}, {}};
    fn->body = p.parseSeq(i, end);
}

// -------------------------------------------------------------------
// Analysis: abstract interpretation over the statement trees.
//
// Each fact is tracked twice per path — once assuming the function
// was entered "clean" and once assuming "dirty" — which makes entry-
// dependence visible without inter-procedural path enumeration:
//   ufF/ufT: may an unfenced persist write be pending, given a
//            fenced / unfenced entry state;
//   mfF/mfT: has a fault hook definitely fired, given an unhooked /
//            hooked entry state.
// -------------------------------------------------------------------

struct St
{
    bool ufF = false, ufT = true;
    bool mfF = false, mfT = true;
    bool term = false;
};

St
joinSt(const St &a, const St &b)
{
    if (a.term)
        return b;
    if (b.term)
        return a;
    St s;
    s.ufF = a.ufF || b.ufF;
    s.ufT = a.ufT || b.ufT;
    s.mfF = a.mfF && b.mfF;
    s.mfT = a.mfT && b.mfT;
    s.term = false;
    return s;
}

struct Analyzer
{
    Tu &tu;
    std::map<std::string, std::vector<Fn *>> byBare;
    std::vector<Violation> *out = nullptr;   // null = summary pass
    std::set<std::tuple<std::string, int, std::string>> seen;

    Fn *cur = nullptr;
    St exitAcc;
    bool anyExit = false;

    void
    report(int line, const std::string &rule, const std::string &msg)
    {
        if (!out)
            return;
        auto key = std::make_tuple(cur->file, line, rule);
        if (!seen.insert(key).second)
            return;
        out->push_back({cur->file, line, rule, msg, cur->qual});
    }

    /** A durable-mutation site needs a fault hook on its path. */
    void
    faultSite(int line, const std::string &what, const St &s)
    {
        if (s.term)
            return;
        if (!s.mfT) {
            report(line, "fault-coverage",
                   what + " with no NVO_FAULT_POINT on its path: "
                   "crash campaigns cannot cut power before this "
                   "durable mutation");
        } else if (!s.mfF && !cur->faultEntryDep) {
            cur->faultEntryDep = true;
            cur->faultDepLine = line;
        }
    }

    void
    apply(const Action &a, St &s)
    {
        switch (a.kind) {
        case Act::FaultHook:
            s.mfF = s.mfT = true;
            break;
        case Act::Barrier:
            s.ufF = s.ufT = false;
            break;
        case Act::PersistWrite:
            faultSite(a.line, "persist-domain write", s);
            s.ufF = s.ufT = true;
            break;
        case Act::RawNvmWrite:
            report(a.line, "persist-domain",
                   "direct NVM write bypasses the persist boundary "
                   "(use " + a.name + ".persist().write)");
            s.ufF = s.ufT = true;
            break;
        case Act::Publish:
            faultSite(a.line, "durable publish", s);
            if (s.ufF) {
                report(a.line, "persist-order",
                       "publish of " + a.name + " can be reached "
                       "with an unfenced persist write pending; a "
                       "barrier() must order merge writes before the "
                       "recovery word names them (paper Sec. V-B)");
            } else if (s.ufT) {
                if (!cur->pubEntryDep) {
                    cur->pubEntryDep = true;
                    cur->pubDepLine = a.line;
                }
            }
            break;
        case Act::MasterMut:
            if (cur->sanction != "masterInsert") {
                report(a.line, "ledger-hook",
                       "master-table " + a.name + " outside "
                       "MnmBackend::masterInsert (or a lambda defined "
                       "there); the provenance ledger would miss this "
                       "version transition");
            }
            break;
        case Act::DropHeader:
            if (cur->sanction != "reclaimSubPage") {
                report(a.line, "ledger-hook",
                       "sub-page dropHeader outside "
                       "MnmBackend::reclaimSubPage (or a lambda "
                       "defined there); buried versions must exit "
                       "the ledger first");
            }
            break;
        case Act::Call: {
            auto it = byBare.find(a.name);
            if (it == byBare.end())
                break;
            // Merge summaries of same-named functions (overloads):
            // may-facts OR, must-facts AND.
            bool mayLeave = false, clears = true, mustFault = true;
            bool pubDep = false, faultDep = false;
            int pubLine = 0, faultLine = 0;
            for (Fn *callee : it->second) {
                mayLeave = mayLeave || callee->mayLeaveUnfenced;
                clears = clears && callee->clearsUnfenced;
                mustFault = mustFault && callee->mustFaultAtExit;
                if (callee->pubEntryDep) {
                    pubDep = true;
                    pubLine = callee->pubDepLine;
                }
                if (callee->faultEntryDep) {
                    faultDep = true;
                    faultLine = callee->faultDepLine;
                }
            }
            if (pubDep) {
                if (s.ufF) {
                    report(a.line, "persist-order",
                           "call of " + a.name + " (which publishes "
                           "durable state at line " +
                           std::to_string(pubLine) + " without its "
                           "own fence) while an unfenced persist "
                           "write is pending");
                } else if (s.ufT && !cur->pubEntryDep) {
                    cur->pubEntryDep = true;
                    cur->pubDepLine = a.line;
                }
            }
            if (faultDep) {
                if (!s.mfT) {
                    report(a.line, "fault-coverage",
                           "call of " + a.name + " (which mutates "
                           "durable state at line " +
                           std::to_string(faultLine) + " relying on "
                           "a caller-side hook) with no "
                           "NVO_FAULT_POINT on this path");
                } else if (!s.mfF && !cur->faultEntryDep) {
                    cur->faultEntryDep = true;
                    cur->faultDepLine = a.line;
                }
            }
            s.ufF = (s.ufF && !clears) || mayLeave;
            s.ufT = (s.ufT && !clears) || mayLeave;
            s.mfF = s.mfF || mustFault;
            s.mfT = s.mfT || mustFault;
            break;
        }
        case Act::LambdaDef: {
            Fn *lam = tu.fns[static_cast<std::size_t>(a.lambda)].get();
            lam->defUfF = s.ufF;
            lam->defUfT = s.ufT;
            lam->defMfF = s.mfF;
            lam->defMfT = s.mfT;
            break;
        }
        }
    }

    St
    exec(const Node *n, St s)
    {
        switch (n->k) {
        case Node::K::Seq:
            for (const auto &kid : n->kids) {
                if (s.term)
                    break;
                s = exec(kid.get(), s);
            }
            return s;
        case Node::K::Act:
            if (!s.term)
                apply(n->act, s);
            return s;
        case Node::K::Ret:
            if (!s.term) {
                if (anyExit) {
                    exitAcc = joinSt(exitAcc, s);
                } else {
                    exitAcc = s;
                    anyExit = true;
                }
                s.term = true;
            }
            return s;
        case Node::K::Branch: {
            s = exec(n->kids[0].get(), s);
            if (s.term)
                return s;
            St a = exec(n->kids[1].get(), s);
            St b = n->kids.size() > 2 ? exec(n->kids[2].get(), s) : s;
            if (a.term && b.term) {
                s.term = true;
                return s;
            }
            return joinSt(a, b);
        }
        case Node::K::Loop: {
            const Node *condN = n->kids[0].get();
            const Node *bodyN = n->kids[1].get();
            if (n->bodyFirst) {
                St b = exec(bodyN, s);
                if (!b.term)
                    b = exec(condN, b);
                St b2 = b;
                if (!b2.term) {
                    b2 = exec(bodyN, b2);
                    if (!b2.term)
                        b2 = exec(condN, b2);
                }
                if (b.term && b2.term) {
                    s.term = true;
                    return s;
                }
                return joinSt(b, b2);
            }
            St c = exec(condN, s);
            if (c.term)
                return c;
            St exit0 = c;   // zero iterations
            St b1 = exec(bodyN, c);
            if (!b1.term)
                b1 = exec(condN, b1);
            St b2 = b1;
            if (!b2.term) {
                b2 = exec(bodyN, b2);
                if (!b2.term)
                    b2 = exec(condN, b2);
            }
            St r = exit0;
            if (!b1.term)
                r = joinSt(r, b1);
            if (!b2.term)
                r = joinSt(r, b2);
            return r;
        }
        }
        return s;
    }

    /** Walk one function; recompute and install its summary.
     *  Returns true when the summary changed. */
    bool
    walk(Fn *f)
    {
        cur = f;
        exitAcc = St{};
        anyExit = false;
        St entry;
        if (f->lambda) {
            entry.ufF = f->defUfF;
            entry.ufT = f->defUfT;
            entry.mfF = f->defMfF;
            entry.mfT = f->defMfT;
        }
        bool oldPubDep = f->pubEntryDep;
        bool oldFaultDep = f->faultEntryDep;
        f->pubEntryDep = false;
        f->faultEntryDep = false;
        St fin = exec(f->body.get(), entry);
        if (!fin.term) {
            exitAcc = anyExit ? joinSt(exitAcc, fin) : fin;
            anyExit = true;
        }
        bool mayLeave, clears, mustFault;
        if (anyExit) {
            mayLeave = exitAcc.ufF;
            clears = !exitAcc.ufT;
            mustFault = exitAcc.mfF;
        } else {
            // No path returns: callers never resume.
            mayLeave = false;
            clears = true;
            mustFault = true;
        }
        bool changed = mayLeave != f->mayLeaveUnfenced ||
                       clears != f->clearsUnfenced ||
                       mustFault != f->mustFaultAtExit ||
                       oldPubDep != f->pubEntryDep ||
                       oldFaultDep != f->faultEntryDep;
        f->mayLeaveUnfenced = mayLeave;
        f->clearsUnfenced = clears;
        f->mustFaultAtExit = mustFault;
        return changed;
    }

    void
    countCallers(const Node *n)
    {
        if (n->k == Node::K::Act && n->act.kind == Act::Call) {
            auto it = byBare.find(n->act.name);
            if (it != byBare.end())
                for (Fn *callee : it->second)
                    ++callee->callers;
        }
        for (const auto &kid : n->kids)
            countCallers(kid.get());
    }

    void
    run(std::vector<Violation> &violations)
    {
        for (auto &f : tu.fns)
            if (!f->lambda)
                byBare[f->bare].push_back(f.get());
        for (auto &f : tu.fns)
            countCallers(f->body.get());

        // Summary fixpoint: bounded because the TU call graphs are
        // shallow; five passes cover every chain in the tree plus
        // slack for the corpus.
        out = nullptr;
        for (int pass = 0; pass < 5; ++pass) {
            bool changed = false;
            for (auto &f : tu.fns)
                changed = walk(f.get()) || changed;
            if (!changed)
                break;
        }

        out = &violations;
        for (auto &f : tu.fns)
            walk(f.get());

        // An entry-dependent durable site in a function nothing in
        // this TU calls is an uncovered public entry point.
        for (auto &f : tu.fns) {
            if (f->lambda || !f->faultEntryDep || f->callers > 0)
                continue;
            cur = f.get();
            report(f->faultDepLine, "fault-coverage",
                   "durable mutation relies on a caller-side "
                   "NVO_FAULT_POINT, but no caller in this "
                   "translation unit provides one");
        }
    }
};

// -------------------------------------------------------------------
// Entry points for the shared front end.
// -------------------------------------------------------------------

/** The rules over one translation unit (no scope-gated rules here:
 *  the tree run's scope is Tool::inScope). */
std::vector<Violation>
checkRules(const std::string &display, const std::string &,
           const std::string &text)
{
    std::vector<Token> toks = front::tokenize(text);
    Tu tu{display, {}};
    Extractor ex{toks, tu};
    ex.run();
    std::vector<Violation> out;
    Analyzer az{tu, {}, nullptr, {}, nullptr, {}, false};
    az.run(out);
    return out;
}

/** Only src/nvoverlay/ and src/repl/ carry the persist protocol. */
bool
inScope(const std::string &path)
{
    return path.find("nvoverlay/") != std::string::npos ||
           path.find("repl/") != std::string::npos;
}

// -------------------------------------------------------------------
// Self-test: each rule demonstrated in both directions, including
// the cross-function cases the token linter cannot see.
// -------------------------------------------------------------------

/** Every case is judged as if it lived in src/nvoverlay/. */
constexpr const char *kSelf = "nvoverlay/self_test.cc";

const std::vector<front::Case> kSelfTest = {
    {"fenced publish is clean", kSelf,
     "void f() { NVO_FAULT_POINT(\"x\");\n"
     "  nvm.persist().write(a, 8, now, k);\n"
     "  nvm.persist().barrier();\n"
     "  durableRecEpoch_ = recEpoch_; }\n",
     nullptr},
    {"unfenced publish fires", kSelf,
     "void f() { NVO_FAULT_POINT(\"x\");\n"
     "  nvm.persist().write(a, 8, now, k);\n"
     "  durableRecEpoch_ = recEpoch_; }\n",
     "persist-order"},
    {"branch-skippable barrier fires", kSelf,
     "void f() { NVO_FAULT_POINT(\"x\");\n"
     "  nvm.persist().write(a, 8, now, k);\n"
     "  if (!p.testSkipRecBarrier)\n"
     "      nvm.persist().barrier();\n"
     "  durableRecEpoch_ = recEpoch_; }\n",
     "persist-order"},
    {"barrier on both branches is clean", kSelf,
     "void f() { NVO_FAULT_POINT(\"x\");\n"
     "  nvm.persist().write(a, 8, now, k);\n"
     "  if (fast) { nvm.persist().barrier(); }\n"
     "  else { nvm.persist().barrier(); }\n"
     "  durableRecEpoch_ = recEpoch_; }\n",
     nullptr},
    {"loop carries the unfenced write to the next publish", kSelf,
     "void f() { NVO_FAULT_POINT(\"x\");\n"
     "  while (more) {\n"
     "    durableCursor_ = c;\n"
     "    nvm.persist().write(a, 8, now, k);\n"
     "  } }\n",
     "persist-order"},
    {"terminated path does not leak into the join", kSelf,
     "void f() { NVO_FAULT_POINT(\"x\");\n"
     "  nvm.persist().write(a, 8, now, k);\n"
     "  if (bail) { nvm.persist().barrier();\n"
     "    durableCursor_ = c; return; }\n"
     "  nvm.persist().barrier();\n"
     "  durableCursor_ = c; }\n",
     nullptr},
    {"callee barrier clears the pending write", kSelf,
     "void fence() { nvm.persist().barrier(); }\n"
     "void g() { NVO_FAULT_POINT(\"x\");\n"
     "  nvm.persist().write(a, 8, now, k);\n"
     "  fence();\n"
     "  durableCursor_ = c; }\n",
     nullptr},
    {"callee write reaches a later publish", kSelf,
     "void wr() { NVO_FAULT_POINT(\"x\");\n"
     "  nvm.persist().write(a, 8, now, k); }\n"
     "void g() { NVO_FAULT_POINT(\"y\"); wr();\n"
     "  durableCursor_ = c; }\n",
     "persist-order"},
    {"publish-only callee flagged at the dirty call site", kSelf,
     "void pub() { NVO_FAULT_POINT(\"p\"); durableCursor_ = c; }\n"
     "void g() { NVO_FAULT_POINT(\"x\");\n"
     "  nvm.persist().write(a, 8, now, k);\n"
     "  pub(); }\n",
     "persist-order"},
    {"publish-only callee fine after a fence", kSelf,
     "void pub() { NVO_FAULT_POINT(\"p\"); durableCursor_ = c; }\n"
     "void g() { NVO_FAULT_POINT(\"x\");\n"
     "  nvm.persist().write(a, 8, now, k);\n"
     "  nvm.persist().barrier();\n"
     "  pub(); }\n",
     nullptr},
    {"persist-domain alias write without fence fires", kSelf,
     "void f() { NVO_FAULT_POINT(\"x\");\n"
     "  PersistDomain &d = nvm.persist();\n"
     "  d.write(a, 8, now, k);\n"
     "  durableCursor_ = c; }\n",
     "persist-order"},
    {"persist-domain alias fence is seen", kSelf,
     "void f() { NVO_FAULT_POINT(\"x\");\n"
     "  PersistDomain &d = nvm.persist();\n"
     "  d.write(a, 8, now, k);\n"
     "  d.barrier();\n"
     "  durableCursor_ = c; }\n",
     nullptr},
    {"unhooked persist write fires", kSelf,
     "void f() { nvm.persist().write(a, 8, now, k);\n"
     "  nvm.persist().barrier(); }\n",
     "fault-coverage"},
    {"hook in a retry-loop condition covers the write", kSelf,
     "void f() { while (NVO_FAULT_ERROR(\"dev\")) { retry(); }\n"
     "  nvm.persist().write(a, 8, now, k);\n"
     "  nvm.persist().barrier(); }\n",
     nullptr},
    {"branch-only hook does not cover the write", kSelf,
     "void f() { if (slow) NVO_FAULT_POINT(\"x\");\n"
     "  nvm.persist().write(a, 8, now, k);\n"
     "  nvm.persist().barrier(); }\n",
     "fault-coverage"},
    {"hook inherited through a call", kSelf,
     "void hook() { NVO_FAULT_POINT(\"x\"); }\n"
     "void f() { hook();\n"
     "  nvm.persist().write(a, 8, now, k);\n"
     "  nvm.persist().barrier(); }\n",
     nullptr},
    {"caller-dependent coverage flagged at bare call", kSelf,
     "void wr2() { nvm.persist().write(a, 8, now, k);\n"
     "  nvm.persist().barrier(); }\n"
     "void f() { wr2(); }\n",
     "fault-coverage"},
    {"caller provides the hook", kSelf,
     "void wr2() { nvm.persist().write(a, 8, now, k);\n"
     "  nvm.persist().barrier(); }\n"
     "void f() { NVO_FAULT_POINT(\"x\"); wr2(); }\n",
     nullptr},
    {"raw NVM write fires", kSelf,
     "void f() { nvm.write(a, 8, now, k); }\n",
     "persist-domain"},
    {"master mutation outside masterInsert fires", kSelf,
     "void f() { part.master->insert(a, v, e); }\n",
     "ledger-hook"},
    {"master mutation inside masterInsert is sanctioned", kSelf,
     "void masterInsert() { part.master->insert(a, v, e); }\n",
     nullptr},
    {"undo lambda inside masterInsert is sanctioned", kSelf,
     "void masterInsert() {\n"
     "  domain.stage(kind, [mt, a, old]{ mt->insert(a, old); });\n"
     "  domain.stage(kind, [mt, a]{ mt->erase(a); }); }\n",
     nullptr},
    {"lambda elsewhere is not sanctioned", kSelf,
     "void f() { run([&]{ master->erase(a); }); }\n",
     "ledger-hook"},
    {"dropHeader outside reclaimSubPage fires", kSelf,
     "void f() { pool.dropHeader(a); }\n",
     "ledger-hook"},
    {"dropHeader inside reclaimSubPage is sanctioned", kSelf,
     "void reclaimSubPage() { part.pool->dropHeader(a); }\n",
     nullptr},
    {"inline allow marker suppresses", kSelf,
     "void f() { nvm.write(a, 8);"
     "   // nvo-check: allow(persist-domain)\n"
     "}\n",
     nullptr},
    {"comments and raw strings carry no actions", kSelf,
     "// nvm.persist().write(a); durableCursor_ = c;\n"
     "void f() { const char *s =\n"
     "  R\"(nvm.write(x); master->insert(y);)\"; use(s); }\n",
     nullptr},
    {"switch body may be skipped", kSelf,
     "void f() { NVO_FAULT_POINT(\"x\");\n"
     "  nvm.persist().write(a, 8, now, k);\n"
     "  switch (mode) {\n"
     "  case 0: nvm.persist().barrier(); break;\n"
     "  default: nvm.persist().barrier(); break;\n"
     "  }\n"
     "  durableCursor_ = c; }\n",
     "persist-order"},
    {"do-while body is guaranteed", kSelf,
     "void f() { NVO_FAULT_POINT(\"x\");\n"
     "  nvm.persist().write(a, 8, now, k);\n"
     "  do { nvm.persist().barrier(); } while (again());\n"
     "  durableCursor_ = c; }\n",
     nullptr},
};

} // namespace

int
main(int argc, char **argv)
{
    return front::run({.name = "nvo_check",
                       .marker = "nvo-check: allow(",
                       .allowlist = "tools/nvo_check_allow.txt",
                       .rules = checkRules,
                       .cases = kSelfTest,
                       .inScope = inScope},
                      argc, argv);
}
