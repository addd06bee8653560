#!/usr/bin/env python3
"""Determinism lint for the DRRS simulator's decision paths.

The simulator's contract is bit-reproducible runs: same workload, same
binary, same results. Three classes of C++ constructs silently break that
contract, and this lint forbids them under the decision-path directories
(src/sim, src/scaling, src/runtime):

  1. wall-clock — any read of host time (std::chrono clocks, time(),
     gettimeofday, clock()) feeding simulation logic. Simulated time comes
     from sim::Simulator::now() only.
  2. unseeded-rng — std::random_device, rand()/srand() or a
     default-constructed engine. Randomness must flow from an explicit
     seed carried by the workload/engine config.
  3. unordered-iteration — range-for over a container whose iteration
     order is unspecified (std::unordered_map/set) or address-dependent
     (std::set/std::map keyed by pointers). Hash-table order varies with
     libstdc++ version and insertion history; pointer order varies with
     ASLR. Either way the event sequence stops being a function of the
     input alone.

Division of labour with drrs-tidy (tools/drrs-tidy): the clang plugin
carries AST-accurate versions of rules 1 and 3 (drrs-wall-clock,
drrs-unordered-iteration) that see through typedefs, `auto` and member
getters, so those two REGEX rules are retired here for the .cc/.cpp files
the plugin analyses as translation units. Headers keep every regex rule:
the plugin's diagnostics are filtered to each TU's main file, so a header
hazard would otherwise go unreported. Rules 2, 4 and 5 stay regex-enforced
everywhere (no clang toolchain needed to run them).

The partitioned simulation backend adds two thread rules, scoped to
src/sim and src/net (the only directories that may run on worker
threads):

  4. thread-hazard — logic keyed on thread identity: std::this_thread,
     std::thread::id / .get_id(), pthread_self(), thread_local. Which
     worker runs a partition is a scheduling accident; any decision that
     reads it makes output depend on thread count. Never waivable.
  5. thread-shared-state — declarations of cross-thread mutable state
     (std::mutex, std::condition_variable, the annotated drrs::Mutex /
     drrs::CondVar wrappers from common/thread_annotations.h, std::atomic,
     std::thread, non-const statics). Shared mutable state is where
     nondeterminism enters a parallel run, so every instance must be
     deliberate: the mailbox lanes and the worker-pool rendezvous are the
     sanctioned sites, waived in place.

A finding can be waived only when it is provably benign (e.g. an
order-independent fold, or mailbox internals drained in canonical order
at a barrier) by annotating the flagged line or the line above it:

    // lint:allow(unordered-iteration): pure min-fold; order-independent.
    // lint:allow(thread-shared-state): lane mutex; drained at barriers.

A thread-shared-state waiver also covers a contiguous run of flagged
declarations directly beneath it (a mutex + the condvars it guards reads
as one sanctioned group), and extends through a declaration that spans
multiple physical lines until its terminating `;` — a waiver above
`std::array<\n  std::atomic<...>, N> x_;` covers the second line too.
The reason text is mandatory. Wall-clock, RNG and thread-hazard findings
are not waivable.

Exit status: 0 when clean, 1 when findings exist, 2 on usage errors.
"""

import argparse
import os
import re
import sys

DECISION_PATH_DIRS = (
    "src/sim",
    "src/scaling",
    "src/runtime",
    "src/fault",
    "src/trace",
    # Data-plane memory & batching (arena, ring deques, batched channel
    # delivery, SoA keyed state): these now sit on the record hot path, so
    # an order hazard here reorders the event sequence itself.
    "src/common",
    "src/net",
    "src/state",
    # Overload control: every shed/throttle decision must be a pure function
    # of (seed, event order) or bit-identity across thread counts breaks.
    "src/overload",
    # Telemetry: samples ride the engine-global timer grid and feed committed
    # CSV/JSON artifacts, so any wall-clock or iteration-order hazard here
    # breaks byte-identity across --threads.
    "src/telemetry",
    # Operators: their state walks decide the order in which results are
    # emitted downstream.
    "src/workloads",
)
CXX_EXTENSIONS = (".h", ".cc", ".cpp", ".hpp")

# ---- rule 1: wall clock ----------------------------------------------------
WALL_CLOCK = re.compile(
    r"std::chrono::(system_clock|steady_clock|high_resolution_clock)"
    r"|\bgettimeofday\s*\("
    r"|\btime\s*\(\s*(NULL|nullptr|0)\s*\)"
    r"|\bclock\s*\(\s*\)"
    r"|\blocaltime\s*\(|\bgmtime\s*\("
)

# ---- rule 2: unseeded randomness -------------------------------------------
UNSEEDED_RNG = re.compile(
    r"std::random_device"
    r"|\bsrand\s*\(|\brand\s*\(\s*\)"
    # A default-constructed standard engine has an implementation-defined
    # seed; require an explicit seed expression between the parentheses.
    r"|std::(mt19937(_64)?|minstd_rand0?|default_random_engine)\s+\w+\s*(;|\{\s*\})"
)

# ---- rule 3: iteration order -----------------------------------------------
# Container member/local declarations whose iteration order is a hazard:
#   std::unordered_map<...> / std::unordered_set<...>    (hash order)
#   std::set<T*> / std::map<T*, ...>                      (address order)
UNORDERED_DECL = re.compile(
    r"std::unordered_(map|set|multimap|multiset)\s*<"
    r"|std::(set|map|multiset|multimap)\s*<\s*[\w:]+\s*\*"
)
# `for (decl : expr)` — a range-for whose range names a flagged variable.
# Range-fors have no `;` inside the parens, which excludes classic fors.
RANGE_FOR = re.compile(r"\bfor\s*\(\s*[^;()]*?\s:\s*([^;)]+)")
IDENTIFIER = re.compile(r"[A-Za-z_]\w*")
ALLOW = re.compile(r"//\s*lint:allow\(unordered-iteration\):\s*\S")
DECL_NAME = re.compile(r">\s+(\w+)\s*(;|=|\{)")

# ---- rules 4+5: threading (src/sim + src/net only) -------------------------
THREAD_RULE_DIRS = ("src/sim", "src/net")
THREAD_HAZARD = re.compile(
    r"std::this_thread"
    r"|std::thread::id"
    r"|\.get_id\s*\("
    r"|\bpthread_self\s*\("
    r"|\bthread_local\b"
)
# Declarations of cross-thread mutable state. The `[^<>(]*\s\w+\s*[;{=(]`
# tail requires a declared name, which keeps `std::lock_guard<std::mutex>`
# and other template-argument mentions from matching. The annotated
# drrs::Mutex / drrs::CondVar wrappers (common/thread_annotations.h) are
# still mutexes and condvars — declaring one is declaring shared state, so
# they match too (`Mutex\b` does not match inside `MutexLock`, which is a
# scoped guard, not new state).
SHARED_MUTABLE = re.compile(
    r"std::(mutex|recursive_mutex|shared_mutex|timed_mutex"
    r"|condition_variable(_any)?|thread)\b[^<>(]*\s\w+\s*[;{=]"
    r"|\b(drrs::)?(Mutex|CondVar)\s+\w+\s*[,;{=]"
    r"|std::atomic\s*<"
    r"|std::vector\s*<\s*std::thread\s*>"
)
# An atomic appearing only as a reference/return type is plumbing, not a new
# shared-state site; the declaration it refers to is flagged where it lives.
ATOMIC_REF = re.compile(r"std::atomic\s*<[^<>]*>\s*&")
# Mutable static storage: `static` (optionally inline) not const/constexpr.
# Function declarations/static_assert carry a `(` and are excluded below.
MUTABLE_STATIC = re.compile(r"^\s*(inline\s+)?static\s+(?!const\b|constexpr\b)")
ALLOW_THREAD = re.compile(r"//\s*lint:allow\(thread-shared-state\):\s*\S")

KEYWORDS = {
    "auto", "const", "if", "else", "for", "while", "return", "break",
    "continue", "size_t", "int", "bool", "char", "float", "double", "this",
    "std", "begin", "end", "first", "second",
}


class Finding:
    def __init__(self, path, line_no, rule, message):
        self.path = path
        self.line_no = line_no
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line_no}: [{self.rule}] {self.message}"


def flagged_container_names(lines):
    """Names of variables declared in this file with hazardous order."""
    names = set()
    for line in lines:
        if not UNORDERED_DECL.search(line):
            continue
        m = DECL_NAME.search(line)
        if m:
            names.add(m.group(1))
    return names


def line_is_waived(lines, idx):
    if ALLOW.search(lines[idx]):
        return True
    if idx > 0 and ALLOW.search(lines[idx - 1]):
        return True
    return False


# A declaration can span physical lines; a waiver must cover all of them,
# not just the first. Cap how far a waiver can reach so an unterminated
# statement (macro soup, lambda body) cannot swallow the rest of the file.
MAX_WAIVER_SPAN = 10


def thread_waiver_spans(lines):
    """0-based indexes covered by a thread-shared-state waiver, extended
    through the (possibly multi-line) declaration the waiver annotates.

    A waiver comment covers code on its own line plus following lines until
    the statement terminates (a `;` outside the comment), bounded by
    MAX_WAIVER_SPAN. The caller still applies the contiguous-run rule on
    top (a flagged declaration directly beneath a waived one is waived).
    """
    covered = set()
    for i, raw in enumerate(lines):
        if not ALLOW_THREAD.search(raw):
            continue
        # Start at the waiver's own line (trailing-comment form) and walk
        # until the annotated declaration ends.
        for j in range(i, min(i + 1 + MAX_WAIVER_SPAN, len(lines))):
            covered.add(j)
            code = lines[j].split("//", 1)[0]
            if j > i and ";" in code:
                break
            if j == i and ";" in code and code.strip():
                break
    return covered


def read_lines(path):
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            return f.read().splitlines()
    except OSError as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def in_thread_scope(path):
    normalized = path.replace(os.sep, "/")
    return any(f"{d}/" in normalized for d in THREAD_RULE_DIRS)


def plugin_covers(path):
    """True when drrs-tidy's AST checks own wall-clock and
    unordered-iteration for this file: a translation unit (.cc/.cpp) in a
    decision-path directory. Headers stay regex-covered because the plugin
    reports only each TU's main file."""
    if not path.endswith((".cc", ".cpp")):
        return False
    normalized = path.replace(os.sep, "/")
    return any(f"{d}/" in normalized for d in DECISION_PATH_DIRS)


def lint_file(path, lines, hazardous):
    findings = []
    thread_scope = in_thread_scope(path)
    ast_covered = plugin_covers(path)
    # Thread-shared-state waivers extend through a contiguous run of flagged
    # declarations: track which prior line indexes (0-based) were waived.
    thread_waived = set()
    waiver_spans = thread_waiver_spans(lines) if thread_scope else set()
    for idx, raw in enumerate(lines, start=1):
        # Strip line comments so commented-out code can't trip the rules,
        # but keep the comment text around for the allow check.
        code = raw.split("//", 1)[0]

        if thread_scope:
            m = THREAD_HAZARD.search(code)
            if m:
                findings.append(Finding(
                    path, idx, "thread-hazard",
                    f"thread-identity-dependent logic `{m.group(0).strip()}`; "
                    "which worker runs a partition is a scheduling accident "
                    "and must not influence simulation decisions (not "
                    "waivable)"))
            shared = SHARED_MUTABLE.search(code) and not ATOMIC_REF.search(code)
            if not shared and "(" not in code:
                shared = MUTABLE_STATIC.search(code)
            if shared:
                i = idx - 1  # 0-based index of this line
                waived = (i in waiver_spans
                          or ALLOW_THREAD.search(lines[i])
                          or (i > 0 and (ALLOW_THREAD.search(lines[i - 1])
                                         or i - 1 in thread_waived)))
                if waived:
                    thread_waived.add(i)
                else:
                    findings.append(Finding(
                        path, idx, "thread-shared-state",
                        "cross-thread mutable state declared outside a "
                        "sanctioned site; waive with `// lint:allow("
                        "thread-shared-state): <reason>` if access is "
                        "barrier-ordered or otherwise deterministic"))

        # wall-clock and unordered-iteration are owned by drrs-tidy's AST
        # checks for the TUs it analyses; the regex only covers headers there.
        m = None if ast_covered else WALL_CLOCK.search(code)
        if m:
            findings.append(Finding(
                path, idx, "wall-clock",
                f"host time read `{m.group(0).strip()}` in a decision path; "
                "use sim::Simulator::now()"))

        m = UNSEEDED_RNG.search(code)
        if m:
            findings.append(Finding(
                path, idx, "unseeded-rng",
                f"unseeded randomness `{m.group(0).strip()}`; thread an "
                "explicit seed from the workload/engine config"))

        if not hazardous or ast_covered:
            continue
        m = RANGE_FOR.search(code)
        if not m:
            continue
        range_expr = m.group(1)
        used = set(IDENTIFIER.findall(range_expr)) - KEYWORDS
        hit = sorted(used & hazardous)
        if not hit and "this->" in range_expr:
            hit = sorted(n for n in hazardous if n in range_expr)
        if hit and not line_is_waived(lines, idx - 1):
            findings.append(Finding(
                path, idx, "unordered-iteration",
                f"iteration over `{hit[0]}` whose order is unspecified or "
                "address-dependent; use an order-stable container, or waive "
                "with `// lint:allow(unordered-iteration): <reason>` if the "
                "loop is order-independent"))
    return findings


def collect_files(root, dirs):
    out = []
    for d in dirs:
        base = os.path.join(root, d)
        if not os.path.isdir(base):
            print(f"error: missing directory {base}", file=sys.stderr)
            sys.exit(2)
        for cur, _sub, names in os.walk(base):
            for name in sorted(names):
                if name.endswith(CXX_EXTENSIONS):
                    out.append(os.path.join(cur, name))
    return sorted(out)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    parser.add_argument("paths", nargs="*",
                        help="explicit files to lint (default: the "
                             "decision-path directories)")
    args = parser.parse_args()

    files = args.paths or collect_files(args.root, DECISION_PATH_DIRS)

    # Two passes: hazardous containers are usually *declared* in a header
    # and *iterated* in the matching .cc, so the name set must span every
    # linted file before any loop is judged.
    contents = {path: read_lines(path) for path in files}
    hazardous = set()
    for lines in contents.values():
        hazardous |= flagged_container_names(lines)

    all_findings = []
    for path in files:
        all_findings.extend(lint_file(path, contents[path], hazardous))

    for f in all_findings:
        print(f)
    if all_findings:
        print(f"\nlint_determinism: {len(all_findings)} finding(s) "
              f"in {len(files)} file(s)", file=sys.stderr)
        return 1
    print(f"lint_determinism: clean ({len(files)} file(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
