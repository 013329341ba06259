#!/usr/bin/env python3
"""rock-analyze: static analysis for Rock's determinism, concurrency and
source-convention invariants.

Five AST-level checks over the translation units in compile_commands.json
(scope: src/) and ten token rules over every source under src/, tests/,
bench/ and examples/, each with an annotation escape hatch and a ratchet
baseline (scripts/rock_analyze_baseline.txt, same format and discipline as
the clang-tidy ratchet):

  nondeterministic-iteration
      A loop over std::unordered_map/std::unordered_set whose body reaches
      an order-sensitive sink — a FixStore mutator, provenance capture,
      JSON/Prometheus export, or an append to a sequence declared outside
      the loop — makes iteration order observable in results. Drain
      through a sorted copy, or annotate the loop
      `// ROCK_ANALYZE(ordered-ok: <reason>)`.
      Commutative drains (counter +=, map/set inserts, min/max) are not
      flagged.

  guarded-field
      A class that owns a rock::common::Mutex/SharedMutex must annotate
      every mutable field with ROCK_GUARDED_BY / ROCK_PT_GUARDED_BY or
      carry `// ROCK_ANALYZE(unguarded-ok: <reason>)` — Clang's thread
      safety analysis silently skips unannotated fields, so an annotation
      gap is an unchecked invariant, not a checked one. Raw std:: mutex
      and lock types outside src/common/ are findings of this check too
      (they carry no capability at all).

  lock-order
      The static lock-acquisition graph (nested MutexLock / ReaderLock /
      WriterLock scopes) must stay acyclic and inside the checked-in edge
      list scripts/lock_order.txt. A nested acquisition whose (class,
      field) pair is not declared there is a finding: new lock-order
      edges are reviewed in the PR that introduces them, not discovered
      in a deadlock. Same-identity nesting needs
      `// ROCK_ANALYZE(lock-order-ok: <reason>)`.

  signal-safety
      The static call graph rooted at SigprofHandler may reach only an
      async-signal-safe allowlist (atomics, backtrace(3) — primed outside
      signal context — and raw syscalls). Any other call is a finding;
      so is any sigaction/timer_*/setitimer token outside
      src/obs/profile.cc. Locally-audited callees can be annotated
      `// ROCK_ANALYZE(as-safe: <reason>)` at the call site.

  span-coverage
      Public core::Rock entry points must open a ScopedSpan
      (ROCK_OBS_SPAN) so every externally visible operation is
      attributable in traces and latency percentiles. Trivial inline
      accessors (single return statement) are exempt; anything else needs
      a span or `// ROCK_ANALYZE(no-span-ok: <reason>)`.

Token rules (comment- and string-blind; a line opts out with
`// ROCK_ANALYZE(<rule>-ok: <reason>)` on it or the two lines above):
  using-namespace    none in headers.
  pragma-once        every header uses `#pragma once`.
  raw-stdio          no std::cout/cerr/printf outside bench/, examples/.
  nondeterminism     no rand()/std::random_device under src/.
  raw-socket         no socket call or socket header outside
                     src/common/net.cc, the one loopback-socket seam.
  raw-clock          no steady_clock::now/clock_gettime under src/ outside
                     src/common/timer.h and src/obs/resource.cc.
  raw-enumeration    no ForEachSatisfying under src/{detect,chase,core,
                     serve}/: they enumerate via Evaluator::Enumerate.
  raw-pool           no BuildRowUnits/ReplayUnrecovered call or WorkerPool
                     construction under src/{detect,chase,core,serve}/:
                     they run pooled work through par::RunRound
                     (src/par/round.h, the one parallel-round seam).
  unregistered-test  every tests/*.cc is globbed (*_test.cc) or named in
                     tests/CMakeLists.txt, or it never runs.
  literal-plus-to-string
                     no `"literal" + std::to_string(...)` under src/, even
                     across a line break: gcc 12 raises a -Wrestrict false
                     positive on it at -O3 depending on the inlining
                     around it, which fails the Release -Werror build and
                     only a full Release build shows. Use StrFormat or
                     append.

Frontends. The analyzer builds one semantic model per file and runs every
check over it. Two frontends produce that model:

  * textual — a built-in C++ tokenizer + structural parser (classes,
    fields, annotations, function bodies, local/param declarations, lock
    scopes, range-for loops) with name-resolution through a global index.
    Self-contained; what local ctest runs.
  * cindex — libclang (clang.cindex) parses each TU with its real compile
    command and overlays canonical types onto the same model, seeing
    through typedefs/auto where the textual frontend cannot. Used by the
    semantic-analysis CI job (pinned libclang wheel).

`--backend auto` (default) uses cindex when importable, textual otherwise.

Usage:
    scripts/rock_analyze.py --build-dir build                # tree mode
    scripts/rock_analyze.py --build-dir build --update-baseline
    scripts/rock_analyze.py --files f.cc g.h --expect guarded-field=2
    scripts/rock_analyze.py --self-test
"""

import argparse
import collections
import hashlib
import json
import os
import re
import sys

CHECKS = (
    "nondeterministic-iteration",
    "guarded-field",
    "lock-order",
    "signal-safety",
    "span-coverage",
)

# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

# Order-sensitive sinks for nondeterministic-iteration: calling any of
# these from a loop over an unordered container makes the container's
# iteration order part of the result.
SINK_CALLS = {
    # chase::FixStore mutators (apply-phase, provenance-carrying) and the
    # funnel that records each fact.
    "RegisterTuple", "AddGroundTruthTuple", "AddGroundTruthValue",
    "AddGroundTruthOrder", "MergeEids", "SetValue", "ReplaceValue",
    "AddTemporal", "AppendFix",
    # Provenance capture.
    "CaptureWitness", "LinkMerge",
}
# Order-sensitive member calls (emission APIs): obs::JsonWriter keys /
# nesting, and sequence appends handled separately below.
SINK_MEMBER_CALLS = {"Key", "BeginObject", "BeginArray"}
# Appending to a sequence declared outside the loop records iteration
# order into it.
APPEND_METHODS = {"push_back", "emplace_back", "push_front", "emplace_front",
                  "append"}

# Mutex-owning field types (suffix match on the normalized type text).
MUTEX_TYPE_SUFFIXES = ("::Mutex", "::SharedMutex")
MUTEX_TYPE_EXACT = {"Mutex", "SharedMutex"}
# Field types that never need ROCK_GUARDED_BY: capabilities themselves,
# atomics (their own synchronization), condition variables (waited on
# under a lock the analysis sees separately).
GUARD_EXEMPT_TYPE_TOKENS = ("Mutex", "SharedMutex", "ThreadRole", "atomic",
                            "condition_variable", "once_flag")
# Raw standard lock/mutex vocabulary that defeats the thread-safety
# analysis.
RAW_MUTEX_RE = re.compile(
    r"std::(mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"lock_guard|unique_lock|scoped_lock|shared_lock)\b")

# RAII lock types establishing lock-order edges.
LOCK_RAII = {"MutexLock": "exclusive", "WriterLock": "exclusive",
             "ReaderLock": "shared"}

# Signal-handler roots for the signal-safety call-graph walk.
SIGNAL_ROOTS = ("SigprofHandler",)
# Async-signal-safe callees: std::atomic members, raw syscalls, and
# backtrace(3), whose lazy unwinder initialization CpuProfiler::Start
# forces outside signal context before arming any timer.
AS_SAFE_CALLS = {
    "load", "store", "exchange", "fetch_add", "fetch_sub", "fetch_or",
    "fetch_and", "compare_exchange_weak", "compare_exchange_strong",
    "backtrace", "syscall", "sigemptyset", "sigfillset", "sigaddset",
    "_exit", "write", "read",
}
# Signal/timer management calls confined to one audited seam.
SIGNAL_SEAM_FILE = "src/obs/profile.cc"
RAW_SIGNAL_RE = re.compile(
    r"(?<![A-Za-z0-9_:.>])(?:::\s*)?"
    r"(?:sigaction|timer_create|timer_settime|timer_delete|setitimer)\s*\(")

# Public entry-point classes for span-coverage: qualified class name.
ENTRY_POINT_CLASSES = ("rock::core::Rock",)
SPAN_TOKENS = {"ROCK_OBS_SPAN", "ROCK_OBS_SPAN_FLOW", "ScopedSpan"}

UNORDERED_CONTAINERS = {"unordered_map", "unordered_set", "unordered_multimap",
                        "unordered_multiset"}
SEQUENCE_CONTAINERS = {"vector", "deque", "array", "list", "span",
                       "initializer_list"}
ORDERED_ASSOC = {"map", "set", "multimap", "multiset"}

# Token rules: the directories they cover, then (rule, regex, message,
# predicate on the repo-relative path saying where the rule applies).
TOKEN_PREFIXES = ("src/", "tests/", "bench/", "examples/")
SOCKET_SEAM_FILE = "src/common/net.cc"
ROUND_SEAM_FILE = "src/par/round.h"
TOKEN_RULES = (
    ("using-namespace", re.compile(r"\busing\s+namespace\b"),
     "`using namespace` in a header leaks into every includer",
     lambda path: path.endswith(".h")),
    # The lookbehind keeps attribute spellings like format(printf, 1, 2)
    # and the wider printf family (snprintf, fprintf) out; std::printf
    # still matches because ':' is not in the class.
    ("raw-stdio", re.compile(
        r"std::cout\b|std::cerr\b|(?<![A-Za-z_])printf\s*\(|std::puts\b"),
     "library code logs via ROCK_LOG, not stdout/stderr",
     lambda path: not path.startswith(("bench/", "examples/"))),
    ("nondeterminism", re.compile(
        r"(?<![A-Za-z_:])rand\s*\(\s*\)|std::random_device\b"),
     "use the seeded rock::common::Rng; rand()/random_device break "
     "reproducibility",
     lambda path: path.startswith("src/")),
    # Bare POSIX calls, optionally `::`-qualified, and the socket headers.
    # The lookbehind keeps member calls (ring.accept(...)), qualified names
    # (std::bind) and identifiers merely ending in a call name
    # (MySocket(...)) from matching.
    ("raw-socket", re.compile(
        r"(?<![A-Za-z0-9_:.>])(?:::\s*)?(?:socket|bind|listen|accept|"
        r"accept4|connect|send|recv|setsockopt|getsockname|shutdown|poll)"
        r"\s*\(|^\s*#\s*include\s*<(?:sys/socket|netinet/in|arpa/inet|"
        r"poll)\.h>"),
     "sockets go through src/common/net.h; %s is the one socket seam" %
     SOCKET_SEAM_FILE,
     lambda path: path != SOCKET_SEAM_FILE),
    ("raw-clock", re.compile(
        r"steady_clock::now\b|(?<![A-Za-z0-9_])clock_gettime\s*\("),
     "read the clock through rock::SteadySeconds / Timer "
     "(src/common/timer.h) or obs::ThreadCpuSeconds",
     lambda path: path.startswith("src/") and path not in (
         "src/common/timer.h", "src/obs/resource.cc")),
    ("raw-enumeration", re.compile(r"\bForEachSatisfying\s*\("),
     "enumerate valuations through rules::Evaluator::Enumerate (one "
     "enumerator for detection and the chase)",
     lambda path: path.startswith(
         ("src/detect/", "src/chase/", "src/core/", "src/serve/"))),
    # Calls of the unit builder and the recovery replay, and a WorkerPool
    # built as a variable, a temporary or on the heap; naming the type
    # (`const par::WorkerPool&`) is fine.
    ("raw-pool", re.compile(
        r"\b(?:BuildRowUnits|ReplayUnrecovered)\s*\(|"
        r"\bWorkerPool\s*(?:[A-Za-z_]\w*\s*)?[({]|"
        r"\b(?:make_unique|make_shared)\s*<\s*(?:par::)?WorkerPool\b|"
        r"\bnew\s+(?:par::)?WorkerPool\b"),
     "run pooled (rule, row-slice) work through par::RunRound; %s is the "
     "one parallel-round seam" % ROUND_SEAM_FILE,
     lambda path: path != ROUND_SEAM_FILE and path.startswith(
         ("src/detect/", "src/chase/", "src/core/", "src/serve/"))),
)
# Token rules matched across line breaks, reported on the line where the
# match starts.
SPANNING_TOKEN_RULES = (
    ("literal-plus-to-string", re.compile(r'"\s*\+\s*std::to_string\s*\('),
     '`"literal" + std::to_string(...)` trips gcc 12\'s -Wrestrict false '
     "positive at -O3 (Release -Werror); build the string with StrFormat "
     "or append",
     lambda path: path.startswith("src/")),
)
CHECKS += tuple(rule[0] for rule in TOKEN_RULES + SPANNING_TOKEN_RULES) + (
    "pragma-once", "unregistered-test")

ANNOT_RE = re.compile(r"ROCK_ANALYZE\(\s*([a-z-]+)\s*:\s*([^)]+)\)")

TYPE_QUALIFIERS = {"const", "constexpr", "static", "mutable", "thread_local",
                   "inline", "explicit", "volatile", "extern", "virtual",
                   "friend", "typename", "register"}
BUILTIN_TYPE_TOKENS = {"unsigned", "signed", "long", "short", "int", "char",
                       "double", "float", "bool", "void", "auto", "wchar_t"}
CONTROL_KEYWORDS = {"if", "for", "while", "switch", "return", "sizeof",
                    "alignof", "catch", "do", "else", "case", "default",
                    "new", "delete", "throw", "goto", "co_await", "co_return",
                    "assert", "decltype", "noexcept", "defined"}

Finding = collections.namedtuple("Finding", "path line check message")
Token = collections.namedtuple("Token", "text line")


# ---------------------------------------------------------------------------
# Lexing
# ---------------------------------------------------------------------------

def strip_comments_and_strings(text, keep_directives=False):
    """Blanks comments, string/char literals and (unless `keep_directives`)
    preprocessor directives, preserving line structure."""
    out = []
    i, n = 0, len(text)
    line_start = True
    while i < n:
        c = text[i]
        if line_start and c == "#" and not keep_directives:
            # Preprocessor directive (with continuations).
            j = i
            while j < n:
                k = text.find("\n", j)
                if k < 0:
                    j = n
                    break
                if text[k - 1] == "\\":
                    j = k + 1
                    continue
                j = k
                break
            out.append("".join(ch if ch == "\n" else " "
                               for ch in text[i:j]))
            i = j
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            i = n if j < 0 else j
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            end = n if j < 0 else j + 2
            out.append("".join(ch if ch == "\n" else " "
                               for ch in text[i:end]))
            i = end
            continue
        if c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            out.append(quote + " " * (min(j, n - 1) - i - 1) + quote)
            i = min(j + 1, n)
            line_start = False
            continue
        out.append(c)
        if c == "\n":
            line_start = True
        elif not c.isspace():
            line_start = False
        i += 1
    return "".join(out)


TOKEN_RE = re.compile(
    r"[A-Za-z_][A-Za-z0-9_]*|\d[\w.]*|::|->\*?|\+=|-=|\*=|/=|==|!=|<=|>=|"
    r"&&|\|\||\+\+|--|<<=?|[{}()\[\];:,<>=&|*+\-/.!?~^%\"']")


def tokenize(text):
    """Tokens over comment/string-stripped text, each with its 1-based
    line."""
    stripped = strip_comments_and_strings(text)
    tokens = []
    line = 1
    pos = 0
    for match in TOKEN_RE.finditer(stripped):
        line += stripped.count("\n", pos, match.start())
        pos = match.start()
        tokens.append(Token(match.group(), line))
    return tokens


def match_braces(tokens):
    """brace_match[i] = index of the `}` closing the `{` at i (and the
    reverse); unbalanced braces map to len(tokens)."""
    match = {}
    stack = []
    for i, tok in enumerate(tokens):
        if tok.text == "{":
            stack.append(i)
        elif tok.text == "}":
            if stack:
                j = stack.pop()
                match[j] = i
                match[i] = j
    for i in stack:
        match[i] = len(tokens)
    return match


def skip_template_args(tokens, i):
    """tokens[i] == '<': returns index one past the matching '>'.
    Conservative: bails (returns i) when the contents look like an
    expression rather than a type list."""
    depth = 0
    j = i
    while j < len(tokens):
        t = tokens[j].text
        if t == "<":
            depth += 1
        elif t == ">":
            depth -= 1
            if depth == 0:
                return j + 1
        elif t in (";", "{", "}") or depth == 0:
            return i
        j += 1
    return i


# ---------------------------------------------------------------------------
# Semantic model
# ---------------------------------------------------------------------------

class FieldModel:
    def __init__(self, name, type_text, line, annotations, is_static,
                 is_const, is_mutable):
        self.name = name
        self.type_text = type_text
        self.line = line
        self.annotations = annotations
        self.is_static = is_static
        self.is_const = is_const
        self.is_mutable = is_mutable


class MethodModel:
    def __init__(self, name, line, access, is_const, body_range):
        self.name = name
        self.line = line
        self.access = access
        self.is_const = is_const
        self.body_range = body_range  # (open, close) token indices or None


class ClassModel:
    def __init__(self, name, qualified, line, kind):
        self.name = name
        self.qualified = qualified
        self.line = line
        self.kind = kind
        self.fields = []
        self.methods = []

    def field(self, name):
        for f in self.fields:
            if f.name == name:
                return f
        return None


class FunctionModel:
    def __init__(self, name, qualifier, namespace, line, body_range,
                 param_range):
        self.name = name
        self.qualifier = qualifier  # 'Rock' for Rock::Method, else ''
        self.namespace = namespace
        self.line = line
        self.body_range = body_range
        self.param_range = param_range


def annotation(raw_lines, line, tag):
    """Reason text for `ROCK_ANALYZE(tag: reason)` on `line` or the two
    lines above it, else None."""
    for l in range(line, max(0, line - 3), -1):
        if 0 < l <= len(raw_lines):
            for found_tag, reason in ANNOT_RE.findall(raw_lines[l - 1]):
                if found_tag == tag and reason.strip():
                    return reason.strip()
    return None


class FileModel:
    def __init__(self, path, text):
        self.path = path
        self.raw_lines = text.split("\n")
        self.tokens = tokenize(text)
        self.brace = match_braces(self.tokens)
        self.classes = []
        self.functions = []
        self.globals = {}  # name -> type_text (namespace-scope variables)

    def annotation(self, line, tag):
        return annotation(self.raw_lines, line, tag)


class Index:
    """Global, cross-file model: class lookup + function lookup."""

    def __init__(self, files, overlay=None):
        self.files = files
        self.overlay = overlay
        self.classes = {}      # short name -> ClassModel (first wins)
        self.classes_q = {}    # qualified name -> ClassModel
        self.functions = collections.defaultdict(list)  # name -> [(file, fn)]
        for fm in files:
            for cm in fm.classes:
                self.classes.setdefault(cm.name, cm)
                self.classes_q.setdefault(cm.qualified, cm)
            for fn in fm.functions:
                self.functions[fn.name].append((fm, fn))

    def class_for_type(self, type_text):
        """ClassModel for a type like 'std::vector<WorkerQueue>'s element
        or 'FaultState&' — matches on the last :: component before any
        template args."""
        if type_text is None:
            return None
        base = type_text.split("<", 1)[0].rstrip("&* ")
        short = base.rsplit("::", 1)[-1].strip()
        return self.classes_q.get(base) or self.classes.get(short)


# ---------------------------------------------------------------------------
# Structural parsing (textual frontend)
# ---------------------------------------------------------------------------

def parse_file(path, text):
    fm = FileModel(path, text)
    _parse_region(fm, 0, len(fm.tokens), [], None)
    return fm


def _join_type(tokens):
    out = []
    for t in tokens:
        if out and (t == "::" or out[-1].endswith("::") or t in (">", "<", ",",
                                                                 "*", "&")):
            if t in (">", ","):
                out[-1] += t
            elif t in ("*", "&"):
                out.append(t)
            elif t == "<":
                out[-1] += t
            else:
                out[-1] += t
        else:
            out.append(t)
    return "".join(out) if len(out) == 1 else " ".join(out).replace(" <", "<")


def _parse_type(tokens, i):
    """Parses a type at tokens[i]; returns (type_text, next_index) or
    (None, i). Handles qualifiers, ::-qualified names, template args,
    builtin multi-token types, trailing cv/ref/ptr."""
    start = i
    n = len(tokens)
    while i < n and tokens[i].text in TYPE_QUALIFIERS:
        i += 1
    type_tokens = []
    if i < n and tokens[i].text in BUILTIN_TYPE_TOKENS:
        while i < n and tokens[i].text in BUILTIN_TYPE_TOKENS:
            type_tokens.append(tokens[i].text)
            i += 1
    else:
        if i < n and tokens[i].text == "::":
            i += 1
        if i >= n or not re.match(r"[A-Za-z_]", tokens[i].text):
            return None, start
        if tokens[i].text in CONTROL_KEYWORDS:
            return None, start
        type_tokens.append(tokens[i].text)
        i += 1
        while i < n:
            if tokens[i].text == "::" and i + 1 < n and re.match(
                    r"[A-Za-z_]", tokens[i + 1].text):
                type_tokens.append("::")
                type_tokens.append(tokens[i + 1].text)
                i += 2
            elif tokens[i].text == "<":
                j = skip_template_args(tokens, i)
                if j == i:
                    break
                type_tokens.extend(t.text for t in tokens[i:j])
                i = j
            else:
                break
    while i < n and tokens[i].text in ("*", "&", "&&", "const"):
        type_tokens.append(tokens[i].text)
        i += 1
    if not type_tokens:
        return None, start
    return "".join(type_tokens), i


def _parse_region(fm, start, end, namespaces, klass, access="public"):
    """Parses a namespace/file region: namespaces, classes, functions,
    namespace-scope variables. When `klass` is a ClassModel, parses its
    body: fields, methods, access specifiers."""
    tokens = fm.tokens
    i = start
    while i < end:
        t = tokens[i].text
        if t == "namespace":
            j = i + 1
            parts = []
            while j < end and tokens[j].text not in ("{", ";", "="):
                if re.match(r"[A-Za-z_]", tokens[j].text):
                    parts.append(tokens[j].text)
                j += 1
            if j < end and tokens[j].text == "{":
                close = fm.brace.get(j, end)
                _parse_region(fm, j + 1, close, namespaces + parts, None)
                i = close + 1
            else:
                i = j + 1
            continue
        if t == "template":
            i += 1
            if i < end and tokens[i].text == "<":
                i = skip_template_args(tokens, i)
            continue
        if t in ("class", "struct") and not (
                i > start and tokens[i - 1].text == "enum"):
            j = i + 1
            # Skip attribute-ish macros: class ROCK_CAPABILITY("x") Name {
            name = None
            while j < end and tokens[j].text not in ("{", ";", ":"):
                if re.match(r"[A-Za-z_]", tokens[j].text):
                    if j + 1 < end and tokens[j + 1].text == "(":
                        close_p = _match_paren(tokens, j + 1, end)
                        j = close_p + 1
                        continue
                    name = tokens[j].text
                j += 1
            if j < end and tokens[j].text == ":":  # base clause
                while j < end and tokens[j].text != "{":
                    if tokens[j].text == "<":
                        j = skip_template_args(tokens, j)
                        continue
                    if tokens[j].text == ";":
                        break
                    j += 1
            if j < end and tokens[j].text == "{" and name:
                qual_parts = namespaces + ([klass.name] if klass else [])
                cm = ClassModel(name, "::".join(qual_parts + [name]),
                                tokens[i].line, t)
                fm.classes.append(cm)
                close = fm.brace.get(j, end)
                _parse_region(fm, j + 1, close, namespaces, cm,
                              "public" if t == "struct" else "private")
                i = close + 1
                # Skip trailing declarators up to ';'.
                while i < end and tokens[i].text != ";":
                    i += 1
                i += 1
            else:
                while j < end and tokens[j].text not in (";", "{"):
                    j += 1
                i = (fm.brace.get(j, end) + 1) if (
                    j < end and tokens[j].text == "{") else j + 1
            continue
        if t == "enum":
            j = i + 1
            while j < end and tokens[j].text not in ("{", ";"):
                j += 1
            i = (fm.brace.get(j, end) + 1) if (
                j < end and tokens[j].text == "{") else j + 1
            continue
        if klass is not None and t in ("public", "private", "protected") \
                and i + 1 < end and tokens[i + 1].text == ":":
            access = t
            i += 2
            continue
        if t == "using" or t == "typedef":
            while i < end and tokens[i].text != ";":
                i += 1
            i += 1
            continue
        if t in (";", "}"):
            i += 1
            continue
        # Statement: declaration (field / method / function / variable).
        i = _parse_declaration(fm, i, end, namespaces, klass, access)
    return


def _match_paren(tokens, i, end):
    depth = 0
    j = i
    while j < end:
        if tokens[j].text == "(":
            depth += 1
        elif tokens[j].text == ")":
            depth -= 1
            if depth == 0:
                return j
        j += 1
    return end - 1


def _parse_declaration(fm, i, end, namespaces, klass, access):
    """One declaration at namespace or class scope starting at i. Returns
    the index just past it."""
    tokens = fm.tokens
    stmt_line = tokens[i].line
    qualifiers = []
    j = i
    while j < end and tokens[j].text in TYPE_QUALIFIERS:
        qualifiers.append(tokens[j].text)
        j += 1
    # Destructor / operator / conversion without leading type.
    type_text, k = _parse_type(tokens, j)
    name = None
    qualifier = ""
    if k < end and tokens[k].text == "~":
        name = "~" + (tokens[k + 1].text if k + 1 < end else "")
        k += 2
    elif k < end and tokens[k].text == "operator":
        name = "operator"
        k += 1
        while k < end and tokens[k].text not in ("(", ";"):
            name += tokens[k].text
            k += 1
    elif k < end and re.match(r"[A-Za-z_]", tokens[k].text):
        # TYPE NAME — possibly Class::Name for out-of-line methods.
        name = tokens[k].text
        k += 1
        while k + 1 < end and tokens[k].text == "::" and re.match(
                r"[A-Za-z_~]", tokens[k + 1].text):
            qualifier = name if not qualifier else qualifier + "::" + name
            if tokens[k + 1].text == "~":
                name = "~" + tokens[k + 2].text
                k += 3
            else:
                name = tokens[k + 1].text
                k += 2
    elif type_text is not None and k < end and tokens[k].text == "(":
        # Constructor (type parsed IS the name): Foo(...) {...}
        last = type_text.rsplit("::", 1)
        name = last[-1].split("<", 1)[0]
        qualifier = last[0] if len(last) == 2 else ""
        type_text = None
    if name is None:
        # Unparseable — skip to end of statement.
        return _skip_statement(fm, i, end)
    # What follows the declarator?
    if k < end and tokens[k].text == "(":
        close_p = _match_paren(tokens, k, end)
        # Trailing tokens: const, noexcept, ROCK_* macros, -> type, = 0,
        # : ctor-init, then `{` (definition) or `;`/`=` (declaration).
        m = close_p + 1
        is_const = False
        while m < end:
            tm = tokens[m].text
            if tm == "const":
                is_const = True
                m += 1
            elif tm in ("noexcept", "override", "final", "&", "&&", "try"):
                m += 1
            elif tm == "->":
                _, m2 = _parse_type(tokens, m + 1)
                m = m2 if m2 > m + 1 else m + 2
            elif re.match(r"[A-Z][A-Z0-9_]*$", tm) and m + 1 < end and \
                    tokens[m + 1].text == "(":
                m = _match_paren(tokens, m + 1, end) + 1
            elif tm == ":":
                # ctor-init list: skip Name(expr), Name{expr}, ...
                m += 1
                while m < end and tokens[m].text != "{":
                    if tokens[m].text == "(":
                        m = _match_paren(tokens, m, end) + 1
                    elif tokens[m].text == "<":
                        m2 = skip_template_args(tokens, m)
                        m = m2 if m2 > m else m + 1
                    elif tokens[m].text == ";":
                        break
                    else:
                        m += 1
            else:
                break
        if m < end and tokens[m].text == "{":
            close_b = fm.brace.get(m, end)
            if klass is not None:
                klass.methods.append(MethodModel(
                    name, stmt_line, access, is_const, (m, close_b)))
            fm.functions.append(FunctionModel(
                name, qualifier or (klass.name if klass else ""),
                "::".join(namespaces), stmt_line, (m, close_b),
                (k, close_p)))
            return close_b + 1
        # Declaration only (or `= default/delete/0`).
        if klass is not None:
            klass.methods.append(MethodModel(
                name, stmt_line, access, is_const, None))
        return _skip_statement(fm, m, end)
    # Data member / namespace-scope variable.
    if klass is not None and type_text is not None:
        annotations = {}
        m = k
        while m < end and tokens[m].text not in (";",):
            tm = tokens[m].text
            if tm in ("ROCK_GUARDED_BY", "ROCK_PT_GUARDED_BY") and \
                    m + 1 < end and tokens[m + 1].text == "(":
                close_p = _match_paren(tokens, m + 1, end)
                annotations[tm] = _join_type(
                    [t.text for t in tokens[m + 2:close_p]])
                m = close_p + 1
            elif tm == "{":
                m = fm.brace.get(m, end) + 1
            elif tm == "=":
                m = _skip_statement(fm, m, end) - 1
                break
            else:
                m += 1
        klass.fields.append(FieldModel(
            name, type_text, stmt_line, annotations,
            "static" in qualifiers, "const" in qualifiers or
            type_text.endswith("const"), "mutable" in qualifiers))
        return _skip_statement(fm, k, end)
    if klass is None and type_text is not None:
        fm.globals.setdefault(name, type_text)
    return _skip_statement(fm, k, end)


def _skip_statement(fm, i, end):
    tokens = fm.tokens
    while i < end:
        t = tokens[i].text
        if t == ";":
            return i + 1
        if t == "{":
            i = fm.brace.get(i, end) + 1
            continue
        if t == "(":
            i = _match_paren(tokens, i, end) + 1
            continue
        i += 1
    return end


# ---------------------------------------------------------------------------
# Expression / type resolution inside function bodies
# ---------------------------------------------------------------------------

class Scope:
    """Declarations visible inside one function body: params + locals,
    position-keyed so resolution honours declaration order."""

    def __init__(self, fm, fn, index):
        self.fm = fm
        self.fn = fn
        self.index = index
        self.decls = []  # (token_pos, name, type_text, init_tokens)
        self._collect_params()
        self._collect_locals()

    def _collect_params(self):
        tokens = self.fm.tokens
        start, close = self.fn.param_range
        i = start + 1
        while i < close:
            type_text, k = _parse_type(tokens, i)
            if type_text is None:
                i += 1
                continue
            if k < close and re.match(r"[A-Za-z_]", tokens[k].text):
                self.decls.append((start, tokens[k].text, type_text, None))
                i = k + 1
            else:
                i = k
            while i < close and tokens[i].text != ",":
                if tokens[i].text == "(":
                    i = _match_paren(tokens, i, close) + 1
                elif tokens[i].text == "<":
                    j = skip_template_args(tokens, i)
                    i = j if j > i else i + 1
                else:
                    i += 1
            i += 1

    def _collect_locals(self):
        tokens = self.fm.tokens
        open_b, close_b = self.fn.body_range
        i = open_b + 1
        stmt_start = i
        paren_depth = 0
        while i < close_b:
            t = tokens[i].text
            if t == "(":
                paren_depth += 1
            elif t == ")":
                paren_depth -= 1
            elif paren_depth == 0 and t in (";", "{", "}"):
                stmt_start = i + 1
            if (i == stmt_start or
                    (i > stmt_start and
                     tokens[i - 1].text in ("(", ";", "{"))) and \
                    re.match(r"[A-Za-z_]", t) and t not in CONTROL_KEYWORDS:
                decl = self._try_decl(i, close_b)
                if decl is not None:
                    self.decls.append(decl)
            i += 1

    def _try_decl(self, i, end):
        """Declaration starting at token i: TYPE NAME (init)? — returns
        (pos, name, type_text, init_tokens) or None."""
        tokens = self.fm.tokens
        type_text, k = _parse_type(tokens, i)
        if type_text is None or k >= end:
            return None
        if not re.match(r"[A-Za-z_]", tokens[k].text) or \
                tokens[k].text in CONTROL_KEYWORDS:
            return None
        name = tokens[k].text
        nxt = tokens[k + 1].text if k + 1 < end else ";"
        # Structured binding: auto& [a, b] = / :
        if type_text.startswith("auto") and name == "":
            return None
        if nxt in (";", "=", "{", "(", ":", ",", ")", "["):
            init = None
            if nxt in ("=", "(", "{"):
                j = k + 2 if nxt == "=" else k + 1
                init = []
                depth = 0
                while j < end:
                    tj = tokens[j].text
                    if tj in ("(", "{", "["):
                        depth += 1
                    elif tj in (")", "}", "]"):
                        if depth == 0:
                            break
                        depth -= 1
                    elif tj in (";", ",") and depth == 0:
                        break
                    init.append(tj)
                    j += 1
            # Single-token "types" followed by '(' are far more likely
            # calls than declarations: require qualification/templates.
            if nxt == "(" and "::" not in type_text and "<" not in \
                    type_text and type_text not in BUILTIN_TYPE_TOKENS and \
                    not type_text.endswith(("&", "*")) and \
                    type_text not in self.index.classes:
                return None
            return (i, name, type_text, init)
        return None

    def type_of(self, name, pos):
        """Type of `name` at token position `pos` (nearest preceding
        declaration; falls back to enclosing-class fields, file globals,
        then the cindex overlay)."""
        best = None
        for decl_pos, decl_name, type_text, init in self.decls:
            if decl_name == name and decl_pos <= pos:
                if best is None or decl_pos > best[0]:
                    best = (decl_pos, type_text, init)
        if best is not None:
            decl_pos, type_text, init = best
            if type_text.rstrip("&*") == "auto" and init:
                # Resolve the initializer at the declaration point with a
                # cycle guard — misparsed statements can make an init
                # appear to reference its own name.
                if not hasattr(self, "_resolving"):
                    self._resolving = set()
                if name in self._resolving:
                    return None
                self._resolving.add(name)
                try:
                    resolved = resolve_expr_type(init, self, decl_pos)
                finally:
                    self._resolving.discard(name)
                if resolved:
                    return resolved
                return None
            return type_text
        owner = self.index.classes.get(self.fn.qualifier) if \
            self.fn.qualifier else None
        if owner is None and self.fn.qualifier:
            owner = self.index.classes_q.get(self.fn.qualifier)
        if owner is not None:
            f = owner.field(name)
            if f is not None:
                return f.type_text
        # Fields of classes defined in the same file (inline methods keep
        # qualifier == class name, handled above; lambdas inside methods
        # also land here).
        if name in self.fm.globals:
            return self.fm.globals[name]
        if self.index.overlay is not None:
            return self.index.overlay.type_of(self.fm.path, name,
                                              self.fm.tokens[pos].line)
        return None


def template_args(type_text):
    """Top-level template argument list of `type_text`, or []."""
    lt = type_text.find("<")
    if lt < 0:
        return []
    depth = 0
    args = []
    current = ""
    for c in type_text[lt:]:
        if c == "<":
            depth += 1
            if depth == 1:
                continue
        elif c == ">":
            depth -= 1
            if depth == 0:
                if current.strip():
                    args.append(current.strip())
                break
        elif c == "," and depth == 1:
            args.append(current.strip())
            current = ""
            continue
        current += c
    return args


def container_kind(type_text):
    if type_text is None:
        return None
    base = type_text.split("<", 1)[0]
    short = base.rsplit("::", 1)[-1].strip("& *")
    if short in UNORDERED_CONTAINERS:
        return "unordered"
    if short in SEQUENCE_CONTAINERS:
        return "sequence"
    if short in ORDERED_ASSOC:
        return "ordered"
    return None


def element_type(type_text):
    """Element type yielded by iterating `type_text`."""
    kind = container_kind(type_text)
    args = template_args(type_text)
    if not args:
        return None
    if kind in ("sequence",):
        return args[0]
    if kind in ("ordered", "unordered"):
        short = type_text.split("<", 1)[0].rsplit("::", 1)[-1].strip("& *")
        if "map" in short and len(args) >= 2:
            return "std::pair<%s,%s>" % (args[0], args[1])
        return args[0]
    return None


def resolve_expr_type(expr_tokens, scope, pos):
    """Type of a member/index chain like `fs.mu`, `queues[i]`,
    `plan->delays`. Returns a type string or None."""
    toks = [t for t in expr_tokens if t not in ("&", "*")]
    if not toks:
        return None
    i = 0
    if toks[0] == "this":
        current = None
        owner = scope.index.classes.get(scope.fn.qualifier)
        if owner:
            current = owner.qualified
        i = 1
        if i < len(toks) and toks[i] in ("->", "."):
            i += 1
        if current is None:
            return None
    else:
        if not re.match(r"[A-Za-z_]", toks[0]):
            return None
        current = scope.type_of(toks[0], pos)
        if current is None:
            return None
        i = 1
    while i < len(toks):
        t = toks[i]
        if t == "[":
            depth = 0
            while i < len(toks):
                if toks[i] == "[":
                    depth += 1
                elif toks[i] == "]":
                    depth -= 1
                    if depth == 0:
                        break
                i += 1
            i += 1
            current = element_type(current)
            if current is None:
                return None
            continue
        if t in (".", "->"):
            if i + 1 >= len(toks):
                return None
            member = toks[i + 1]
            if i + 2 < len(toks) and toks[i + 2] == "(":
                if member in ("begin", "end", "cbegin", "cend"):
                    return current  # iterator over `current`
                return None  # arbitrary call: give up
            if member in ("first", "second") and \
                    container_kind(current) is None and \
                    "pair" in current.split("<", 1)[0]:
                args = template_args(current)
                if len(args) == 2:
                    current = args[0] if member == "first" else args[1]
                    i += 2
                    continue
                return None
            cm = scope.index.class_for_type(current)
            if cm is None:
                return None
            f = cm.field(member)
            if f is None:
                return None
            current = f.type_text
            i += 2
            continue
        break
    return current


# ---------------------------------------------------------------------------
# cindex frontend: semantic type overlay from libclang
# ---------------------------------------------------------------------------

class CindexOverlay:
    """Canonical variable/field types per (file, name, line), harvested
    from libclang cursors. The structural model still comes from the
    textual parser; the overlay answers the type questions it cannot —
    typedefs, auto, template aliases — with the real AST's answer."""

    def __init__(self):
        self.types = collections.defaultdict(list)  # (path,name)->[(ln,ty)]
        self.range_for = collections.defaultdict(list)  # path->[(ln,ty)]

    def add(self, path, name, line, type_text):
        self.types[(path, name)].append((line, type_text))

    def type_of(self, path, name, line):
        best = None
        for decl_line, type_text in self.types.get((path, name), ()):
            if decl_line <= line and (best is None or decl_line > best[0]):
                best = (decl_line, type_text)
        if best is None:
            for decl_line, type_text in self.types.get((path, name), ()):
                if best is None or decl_line < best[0]:
                    best = (decl_line, type_text)
        return best[1] if best else None


def load_cindex():
    try:
        from clang import cindex  # noqa: deferred, optional
    except ImportError:
        return None
    lib = os.environ.get("ROCK_LIBCLANG")
    if lib:
        try:
            cindex.Config.set_library_file(lib)
        except Exception:  # noqa: BLE001 — config may already be frozen
            pass
    try:
        cindex.Index.create()
    except Exception:  # noqa: BLE001 — unloadable library
        return None
    return cindex


def build_overlay(cindex, compile_db, root, paths):
    """Parses every TU whose main file is in `paths` and records canonical
    declared types for VarDecl/ParmDecl/FieldDecl cursors in first-party
    files."""
    overlay = CindexOverlay()
    index = cindex.Index.create()
    wanted = {os.path.abspath(p) for p in paths}
    decl_kinds = (cindex.CursorKind.VAR_DECL, cindex.CursorKind.PARM_DECL,
                  cindex.CursorKind.FIELD_DECL)
    for entry in compile_db:
        absolute = os.path.normpath(
            os.path.join(entry.get("directory", ""), entry["file"]))
        if absolute not in wanted:
            continue
        args = []
        raw = entry.get("arguments") or entry.get("command", "").split()
        skip_next = False
        for a in raw[1:]:
            if skip_next:
                skip_next = False
                continue
            if a in ("-c", "-o"):
                skip_next = a == "-o"
                continue
            if a == entry["file"] or a.endswith(entry["file"]):
                continue
            args.append(a)
        try:
            tu = index.parse(absolute, args=args)
        except Exception:  # noqa: BLE001 — parse failure degrades to textual
            continue
        for cursor in tu.cursor.walk_preorder():
            try:
                if cursor.kind not in decl_kinds or not cursor.location.file:
                    continue
                path = os.path.relpath(cursor.location.file.name, root)
                if path.startswith(".."):
                    continue
                type_text = cursor.type.get_canonical().spelling
                type_text = re.sub(r"\bstd::__[a-z0-9_]+::", "std::",
                                   type_text)
                overlay.add(path, cursor.spelling, cursor.location.line,
                            type_text)
            except Exception:  # noqa: BLE001 — cursor API hiccup
                continue
    return overlay


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def iter_loops(fm, fn, scope):
    """Yields (loop_line, expr_tokens, body_open, body_close, header_pos)
    for range-for loops and `for (auto it = X.begin(); ...)` iterator
    loops in `fn`."""
    tokens = fm.tokens
    open_b, close_b = fn.body_range
    i = open_b
    while i < close_b:
        if tokens[i].text != "for" or i + 1 >= close_b or \
                tokens[i + 1].text != "(":
            i += 1
            continue
        close_p = _match_paren(tokens, i + 1, close_b)
        header = tokens[i + 2:close_p]
        # Body: `{ ... }` or single statement up to ';'.
        if close_p + 1 < close_b and tokens[close_p + 1].text == "{":
            body_open = close_p + 1
            body_close = fm.brace.get(body_open, close_b)
        else:
            body_open = close_p
            body_close = body_open + 1
            depth = 0
            while body_close < close_b:
                bt = tokens[body_close].text
                if bt in ("(", "{"):
                    depth += 1
                elif bt in (")", "}"):
                    depth -= 1
                elif bt == ";" and depth == 0:
                    break
                body_close += 1
        # Range-for: a ':' at paren depth 0 within the header.
        colon = None
        depth = 0
        for h, tok in enumerate(header):
            if tok.text in ("(", "[", "{"):
                depth += 1
            elif tok.text in (")", "]", "}"):
                depth -= 1
            elif tok.text == ":" and depth == 0:
                colon = h
                break
            elif tok.text == ";" and depth == 0:
                break
        if colon is not None:
            expr = [t.text for t in header[colon + 1:]]
            yield (tokens[i].line, expr, body_open, body_close, i)
        else:
            # Iterator loop: first clause `auto it = X.begin()`.
            first = []
            for tok in header:
                if tok.text == ";":
                    break
                first.append(tok.text)
            if len(first) >= 5 and first[-1] == ")" and first[-2] == "(" and \
                    first[-3] in ("begin", "cbegin"):
                base = []
                for t in reversed(first[:-4]):
                    if t in ("=", "auto"):
                        break
                    base.append(t)
                base.reverse()
                yield (tokens[i].line, base, body_open, body_close, i)
        i = body_open + 1


def check_nondeterministic_iteration(index, findings):
    for fm in index.files:
        for fn in fm.functions:
            scope = Scope(fm, fn, index)
            for line, expr, body_open, body_close, header_pos in \
                    iter_loops(fm, fn, scope):
                expr_type = resolve_expr_type(expr, scope, header_pos)
                if container_kind(expr_type) != "unordered":
                    continue
                if fm.annotation(line, "ordered-ok"):
                    continue
                sink = _find_order_sink(fm, scope, body_open, body_close)
                if sink is None:
                    continue
                sink_name, sink_line = sink
                # Canonical collect-then-sort drain: an append sink whose
                # receiver is std::sort()ed after the loop is
                # order-insensitive — the sort erases iteration order.
                base = sink_name.split(".", 1)[0]
                if _sorted_after(fm, fn, body_close, base):
                    continue
                findings.append(Finding(
                    fm.path, line, "nondeterministic-iteration",
                    "loop over unordered container '%s' reaches "
                    "order-sensitive sink '%s' (line %d); drain a sorted "
                    "copy or annotate "
                    "// ROCK_ANALYZE(ordered-ok: <reason>)" % (
                        "".join(expr), sink_name, sink_line)))


def _sorted_after(fm, fn, body_close, base):
    """True when `sort(base.begin(), base.end()...)` appears between the
    loop's closing brace and the end of the enclosing function."""
    tokens = fm.tokens
    _, fn_close = fn.body_range
    i = body_close
    while i + 4 < fn_close:
        if tokens[i].text == "sort" and tokens[i + 1].text == "(" and \
                tokens[i + 2].text == base and \
                tokens[i + 3].text == "." and \
                tokens[i + 4].text == "begin":
            return True
        i += 1
    return False


def _find_order_sink(fm, scope, body_open, body_close):
    """First order-sensitive sink inside a loop body: a configured sink
    call, an emission member call, or an append to a sequence declared
    outside the loop."""
    tokens = fm.tokens
    loop_locals = set()
    i = body_open + 1
    while i < body_close:
        t = tokens[i].text
        nxt = tokens[i + 1].text if i + 1 < body_close else ""
        if re.match(r"[A-Za-z_]", t) and nxt == "(":
            receiver = _receiver_chain(tokens, i)
            if t in SINK_CALLS:
                return (t, tokens[i].line)
            if receiver and t in SINK_MEMBER_CALLS:
                return ("%s.%s" % (receiver[-1], t), tokens[i].line)
            if receiver and t in APPEND_METHODS:
                base = receiver[0]
                if base not in loop_locals:
                    base_type = scope.type_of(base, i)
                    if base_type is None or \
                            container_kind(base_type) in ("sequence", None):
                        if base_type is None or \
                                container_kind(base_type) == "sequence" or \
                                "string" in base_type:
                            return ("%s.%s" % (base, t), tokens[i].line)
        # Track locals declared inside the loop body (appends to those are
        # invisible outside a single iteration).
        if re.match(r"[A-Za-z_]", t) and t not in CONTROL_KEYWORDS and \
                (tokens[i - 1].text in (";", "{", "}", "(") or
                 i == body_open + 1):
            decl = scope._try_decl(i, body_close)
            if decl is not None:
                loop_locals.add(decl[1])
        if t == "+=":
            base_pos = i - 1
            chain = _receiver_chain(tokens, base_pos + 1)
            base = chain[0] if chain else (
                tokens[base_pos].text if re.match(
                    r"[A-Za-z_]", tokens[base_pos].text) else None)
            if base and base not in loop_locals:
                base_type = scope.type_of(base, i)
                if base_type is not None and "string" in base_type:
                    return ("%s +=" % base, tokens[i].line)
        i += 1
    return None


def _receiver_chain(tokens, call_pos):
    """For `a.b.c(` at call_pos == index of `c`, returns ['a','b'];
    empty when the call has no receiver."""
    chain = []
    i = call_pos - 1
    while i > 0 and tokens[i].text in (".", "->"):
        prev = tokens[i - 1]
        if prev.text == ")":
            return chain[::-1] if chain else ["<call>"]
        if prev.text == "]":
            depth = 0
            j = i - 1
            while j > 0:
                if tokens[j].text == "]":
                    depth += 1
                elif tokens[j].text == "[":
                    depth -= 1
                    if depth == 0:
                        break
                j -= 1
            i = j
            prev = tokens[i - 1]
        if not re.match(r"[A-Za-z_]", prev.text):
            break
        chain.append(prev.text)
        i -= 2
    return chain[::-1]


def check_guarded_fields(index, findings):
    for fm in index.files:
        for cm in fm.classes:
            mutex_fields = [f for f in cm.fields if _is_mutex_type(
                f.type_text)]
            if not mutex_fields:
                continue
            for f in cm.fields:
                if f in mutex_fields or f.is_static:
                    continue
                if f.is_const and not f.is_mutable:
                    continue
                if any(tok in f.type_text for tok in
                       GUARD_EXEMPT_TYPE_TOKENS):
                    continue
                if "ROCK_GUARDED_BY" in f.annotations or \
                        "ROCK_PT_GUARDED_BY" in f.annotations:
                    continue
                if fm.annotation(f.line, "unguarded-ok"):
                    continue
                findings.append(Finding(
                    fm.path, f.line, "guarded-field",
                    "field '%s::%s' in a mutex-owning class has no "
                    "ROCK_GUARDED_BY — the thread-safety analysis skips "
                    "unannotated fields; annotate it or mark "
                    "// ROCK_ANALYZE(unguarded-ok: <reason>)" % (
                        cm.name, f.name)))
        # Raw std:: locks outside the annotated wrappers.
        if not fm.path.startswith("src/common/"):
            for lineno, raw in enumerate(fm.raw_lines, start=1):
                pass  # raw scan happens on stripped text below
            stripped = strip_comments_and_strings(
                "\n".join(fm.raw_lines)).split("\n")
            for lineno, code in enumerate(stripped, start=1):
                if RAW_MUTEX_RE.search(code):
                    if fm.annotation(lineno, "raw-mutex-ok"):
                        continue
                    findings.append(Finding(
                        fm.path, lineno, "guarded-field",
                        "raw std:: mutex/lock carries no capability — the "
                        "thread-safety analysis cannot see it; use the "
                        "annotated rock::common wrappers "
                        "(src/common/mutex.h)"))


def _is_mutex_type(type_text):
    base = type_text.rstrip("&* ")
    return base in MUTEX_TYPE_EXACT or \
        any(base.endswith(s) for s in MUTEX_TYPE_SUFFIXES)


def check_lock_order(index, findings, declared_edges):
    """Collects nested lock acquisitions into a graph; findings for
    undeclared edges and for cycles over declared ∪ discovered."""
    discovered = {}  # (from, to) -> (path, line)
    for fm in index.files:
        for fn in fm.functions:
            scope = Scope(fm, fn, index)
            _walk_lock_scopes(fm, fn, scope, discovered, findings)
    edges = dict(discovered)
    for (a, b), site in discovered.items():
        if (a, b) not in declared_edges:
            findings.append(Finding(
                site[0], site[1], "lock-order",
                "undeclared lock-order edge %s -> %s; add it to "
                "scripts/lock_order.txt (reviewed there) or restructure "
                "to avoid nesting" % (a, b)))
    for (a, b) in declared_edges:
        edges.setdefault((a, b), ("scripts/lock_order.txt", 1))
    # Cycle detection (DFS) over the merged graph.
    graph = collections.defaultdict(list)
    for (a, b), site in edges.items():
        graph[a].append((b, site))
    state = {}
    stack = []

    def dfs(node):
        state[node] = 1
        for nxt, site in graph.get(node, ()):
            if state.get(nxt, 0) == 1:
                cycle = stack[stack.index(nxt):] if nxt in stack else [nxt]
                findings.append(Finding(
                    site[0], site[1], "lock-order",
                    "lock-order cycle: %s -> %s closes a cycle through "
                    "[%s]" % (node, nxt, " -> ".join(cycle + [nxt]))))
            elif state.get(nxt, 0) == 0:
                stack.append(nxt)
                dfs(nxt)
                stack.pop()
        state[node] = 2

    for node in list(graph):
        if state.get(node, 0) == 0:
            stack.append(node)
            dfs(node)
            stack.pop()


def _walk_lock_scopes(fm, fn, scope, discovered, findings):
    tokens = fm.tokens
    open_b, close_b = fn.body_range
    held = []  # (identity, scope_end_token, line)
    brace_stack = [close_b]
    i = open_b + 1
    while i < close_b:
        t = tokens[i].text
        if t == "{":
            brace_stack.append(fm.brace.get(i, close_b))
        elif t == "}":
            if len(brace_stack) > 1:
                brace_stack.pop()
            held = [h for h in held if h[1] > i]
        elif t in LOCK_RAII and i + 2 < close_b and \
                re.match(r"[A-Za-z_]", tokens[i + 1].text) and \
                tokens[i + 2].text == "(":
            close_p = _match_paren(tokens, i + 2, close_b)
            expr = [tok.text for tok in tokens[i + 3:close_p]]
            identity = _lock_identity(expr, scope, i)
            line = tokens[i].line
            scope_end = brace_stack[-1]
            held = [h for h in held if h[1] > i]
            for h_ident, _, _h_line in held:
                if h_ident == identity:
                    if not fm.annotation(line, "lock-order-ok"):
                        findings.append(Finding(
                            fm.path, line, "lock-order",
                            "acquisition of '%s' while already holding "
                            "'%s' (same identity) — self-deadlock unless "
                            "instances are provably distinct and "
                            "consistently ordered; annotate "
                            "// ROCK_ANALYZE(lock-order-ok: <reason>)"
                            % (identity, h_ident)))
                else:
                    discovered.setdefault((h_ident, identity),
                                          (fm.path, line))
            held.append((identity, scope_end, line))
            i = close_p
        i += 1


def _lock_identity(expr_tokens, scope, pos):
    """Normalizes a lock expression to a stable identity:
    `fs.mu` (fs: FaultState&) -> FaultState::mu; a bare member of the
    enclosing class -> Class::member; else the textual expression."""
    toks = [t for t in expr_tokens if t not in ("&", "*")]
    if not toks:
        return "<empty>"
    # Member chain: resolve the base, identity is owner-type::member.
    for i in range(len(toks) - 2, -1, -1):
        if toks[i] in (".", "->"):
            member = toks[i + 1]
            base_type = resolve_expr_type(toks[:i], scope, pos)
            cm = scope.index.class_for_type(base_type) if base_type else None
            if cm is not None:
                return "%s::%s" % (cm.name, member)
            return "".join(toks)
    name = toks[0]
    owner = scope.index.classes.get(scope.fn.qualifier)
    if owner is not None and owner.field(name) is not None:
        return "%s::%s" % (owner.name, name)
    # A local/param mutex (fixtures, ad-hoc): type it if possible.
    base_type = scope.type_of(name, pos)
    if base_type is not None and _is_mutex_type(base_type):
        return name
    return "".join(toks)


def check_signal_safety(index, findings):
    # (a) call-graph walk from every signal-handler root.
    for root_name in SIGNAL_ROOTS:
        for fm, fn in index.functions.get(root_name, ()):
            visited = set()
            _walk_as_safe(index, fm, fn, visited, findings, [root_name])
    # (b) signal/timer syscall confinement (one audited seam).
    for fm in index.files:
        if fm.path.endswith(SIGNAL_SEAM_FILE) or \
                fm.path == SIGNAL_SEAM_FILE:
            continue
        stripped = strip_comments_and_strings(
            "\n".join(fm.raw_lines)).split("\n")
        for lineno, code in enumerate(stripped, start=1):
            if RAW_SIGNAL_RE.search(code):
                if fm.annotation(lineno, "signal-seam-ok"):
                    continue
                findings.append(Finding(
                    fm.path, lineno, "signal-safety",
                    "signal handlers / profiling timers are confined to "
                    "%s (the audited async-signal-safety seam)" %
                    SIGNAL_SEAM_FILE))


def _walk_as_safe(index, fm, fn, visited, findings, path_names):
    key = (fm.path, fn.name, fn.line)
    if key in visited:
        return
    visited.add(key)
    scope = Scope(fm, fn, index)
    decl_positions = {d[0] for d in scope.decls}
    tokens = fm.tokens
    open_b, close_b = fn.body_range
    i = open_b + 1
    while i < close_b:
        t = tokens[i].text
        nxt = tokens[i + 1].text if i + 1 < close_b else ""
        if re.match(r"[A-Za-z_]", t) and nxt == "(" and \
                t not in CONTROL_KEYWORDS:
            # Skip declarations parsed as TYPE NAME(init).
            prev = tokens[i - 1].text
            is_decl_name = any(dp < i and scope.fm.tokens[dp].line ==
                               tokens[i].line for dp in decl_positions
                               if scope.decls and any(
                                   d[0] == dp and d[1] == t
                                   for d in scope.decls))
            if is_decl_name:
                i += 1
                continue
            if prev == "::" or re.match(r"[A-Za-z_]", prev) or \
                    prev in (".", "->", ";", "{", "}", "(", ",", "=", "&&",
                             "||", "!", "return", "<", ">", "+", "-", "[",
                             "+=", "==", "!="):
                if t in AS_SAFE_CALLS:
                    i += 1
                    continue
                if fm.annotation(tokens[i].line, "as-safe"):
                    i += 1
                    continue
                callees = index.functions.get(t, ())
                if callees:
                    # Prefer a definition in the same file (statics).
                    same = [c for c in callees if c[0].path == fm.path]
                    for callee_fm, callee_fn in (same or callees[:1]):
                        _walk_as_safe(index, callee_fm, callee_fn, visited,
                                      findings, path_names + [t])
                else:
                    findings.append(Finding(
                        fm.path, tokens[i].line, "signal-safety",
                        "call to '%s' from signal-handler path [%s] is "
                        "not on the async-signal-safe allowlist; prove "
                        "it safe and annotate "
                        "// ROCK_ANALYZE(as-safe: <reason>), or move it "
                        "out of the handler" % (
                            t, " -> ".join(path_names))))
        i += 1


def check_span_coverage(index, findings):
    for qualified in ENTRY_POINT_CLASSES:
        cm = index.classes_q.get(qualified)
        if cm is None:
            continue
        cm_file = next((fm for fm in index.files if cm in fm.classes), None)
        for method in cm.methods:
            if method.access != "public":
                continue
            if method.name == cm.name or method.name.startswith("~") or \
                    method.name.startswith("operator"):
                continue
            body_fm, body_range = None, None
            if method.body_range is not None:
                body_fm, body_range = cm_file, method.body_range
            else:
                for fn_fm, fn in index.functions.get(method.name, ()):
                    if fn.qualifier == cm.name or \
                            fn.qualifier == cm.qualified:
                        body_fm, body_range = fn_fm, fn.body_range
                        break
            if body_range is None:
                continue  # declaration without a definition in scope
            open_b, close_b = body_range
            body = body_fm.tokens[open_b:close_b + 1]
            if any(tok.text in SPAN_TOKENS for tok in body):
                continue
            # Trivial accessor exemption: a single return statement.
            n_semis = sum(1 for tok in body if tok.text == ";")
            returns = any(tok.text == "return" for tok in body)
            if returns and n_semis <= 1 and len(body) <= 18:
                continue
            line = body_fm.tokens[open_b].line
            if body_fm.annotation(line, "no-span-ok") or \
                    (cm_file is not None and
                     cm_file.annotation(method.line, "no-span-ok")):
                continue
            findings.append(Finding(
                body_fm.path, line, "span-coverage",
                "public entry point %s::%s opens no ScopedSpan "
                "(ROCK_OBS_SPAN) — external operations must be "
                "attributable in traces; add one or annotate "
                "// ROCK_ANALYZE(no-span-ok: <reason>)" % (
                    cm.name, method.name)))


# ---------------------------------------------------------------------------
# Token rules
# ---------------------------------------------------------------------------

def check_token_rules(path, text, findings):
    """Line-level source conventions; `path` is repo-relative with forward
    slashes."""
    raw_lines = text.split("\n")
    code_lines = strip_comments_and_strings(
        text, keep_directives=True).split("\n")
    for rule, regex, message, applies in TOKEN_RULES:
        if not applies(path):
            continue
        for lineno, code in enumerate(code_lines, start=1):
            if regex.search(code) and \
                    not annotation(raw_lines, lineno, rule + "-ok"):
                findings.append(Finding(path, lineno, rule, message))
    code_text = "\n".join(code_lines)
    for rule, regex, message, applies in SPANNING_TOKEN_RULES:
        if not applies(path):
            continue
        for match in regex.finditer(code_text):
            lineno = code_text.count("\n", 0, match.start()) + 1
            if not annotation(raw_lines, lineno, rule + "-ok"):
                findings.append(Finding(path, lineno, rule, message))
    if path.endswith(".h") and "#pragma once" not in text:
        findings.append(Finding(path, 1, "pragma-once",
                                "headers use `#pragma once`"))


def check_test_registration(paths, cmake_text, findings):
    """Every top-level tests/*.cc must be globbed (*_test.cc) or named in
    tests/CMakeLists.txt."""
    for path in paths:
        directory, name = os.path.split(path)
        if directory != "tests" or not name.endswith(".cc"):
            continue
        if name.endswith("_test.cc") or name in cmake_text:
            continue
        findings.append(Finding(
            path, 1, "unregistered-test",
            "not matched by the *_test.cc glob and not named in "
            "tests/CMakeLists.txt — it will never run"))


def token_paths(root):
    """Every .h/.cc under the token rules' directories."""
    paths = []
    for prefix in TOKEN_PREFIXES:
        for dirpath, _dirnames, filenames in os.walk(
                os.path.join(root, prefix)):
            for name in filenames:
                if name.endswith((".h", ".cc")):
                    rel = os.path.relpath(os.path.join(dirpath, name), root)
                    paths.append(rel.replace(os.sep, "/"))
    return sorted(paths)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def repo_root():
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_lock_order(path):
    edges = set()
    if not os.path.exists(path):
        return edges
    with open(path, encoding="utf-8") as fp:
        for line in fp:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "->" not in line:
                continue
            a, b = (part.strip() for part in line.split("->", 1))
            edges.add((a, b))
    return edges


def read_sources(paths, root):
    """{repo-relative path: text} for `paths` (absolute or relative)."""
    sources = {}
    for path in paths:
        rel = os.path.relpath(path, root) if os.path.isabs(path) else path
        with open(os.path.join(root, rel), encoding="utf-8") as fp:
            sources[rel.replace(os.sep, "/")] = fp.read()
    return sources


def analyze(paths, root, lock_order_path, overlay=None, token_files=None):
    """Semantic checks over `paths`, token rules over `token_files`
    (default: `paths`)."""
    findings = []
    tokens = read_sources(paths if token_files is None else token_files,
                          root)
    for rel, text in tokens.items():
        check_token_rules(rel, text, findings)
    cmake_path = os.path.join(root, "tests", "CMakeLists.txt")
    cmake_text = ""
    if os.path.exists(cmake_path):
        with open(cmake_path, encoding="utf-8") as fp:
            cmake_text = fp.read()
    check_test_registration(tokens, cmake_text, findings)
    files = [parse_file(rel, text)
             for rel, text in read_sources(paths, root).items()]
    index = Index(files, overlay)
    check_nondeterministic_iteration(index, findings)
    check_guarded_fields(index, findings)
    check_lock_order(index, findings, load_lock_order(lock_order_path))
    check_signal_safety(index, findings)
    check_span_coverage(index, findings)
    return findings


def tree_paths(build_dir, root):
    """Analyzed file set in tree mode: src/ TUs from the compilation
    database plus every first-party header under src/."""
    db_path = os.path.join(build_dir, "compile_commands.json")
    with open(db_path, encoding="utf-8") as fp:
        db = json.load(fp)
    paths = set()
    for entry in db:
        absolute = os.path.normpath(
            os.path.join(entry.get("directory", ""), entry["file"]))
        rel = os.path.relpath(absolute, root)
        if rel.startswith("src/") and rel.endswith(".cc"):
            paths.add(rel)
    for dirpath, _dirnames, filenames in os.walk(os.path.join(root, "src")):
        for name in filenames:
            if name.endswith(".h"):
                rel = os.path.relpath(os.path.join(dirpath, name), root)
                paths.add(rel.replace(os.sep, "/"))
    return sorted(paths), db


def aggregate(findings):
    agg = {}
    for f in findings:
        key = (f.path, f.check)
        agg[key] = agg.get(key, 0) + 1
    return agg


def read_baseline(path):
    baseline = {}
    if not os.path.exists(path):
        return baseline
    with open(path, encoding="utf-8") as fp:
        for line in fp:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rel, check, count = line.split("\t")
            baseline[(rel, check)] = int(count)
    return baseline


def write_baseline(path, agg):
    with open(path, "w", encoding="utf-8") as fp:
        fp.write("# rock_analyze ratchet baseline: file<TAB>check<TAB>"
                 "count.\n# Regenerate with scripts/rock_analyze.py "
                 "--update-baseline. The goal state is empty: every\n"
                 "# finding is fixed or carries a justified ROCK_ANALYZE "
                 "annotation.\n")
        for (rel, check), count in sorted(agg.items()):
            fp.write("%s\t%s\t%d\n" % (rel, check, count))


def diff_against_baseline(agg, baseline):
    regressions = []
    for key, count in sorted(agg.items()):
        allowed = baseline.get(key, 0)
        if count > allowed:
            regressions.append((key[0], key[1], count, allowed))
    return regressions


def config_hash(root, build_dir, lock_order_path, sources):
    """Cache key: the analyzer, its configuration and every analyzed
    source, so editing any of them invalidates cached findings."""
    digest = hashlib.sha256()
    for path in [os.path.join(build_dir, "compile_commands.json"),
                 os.path.abspath(__file__), lock_order_path,
                 os.path.join(root, "tests", "CMakeLists.txt")] + \
            [os.path.join(root, rel) for rel in sources]:
        if os.path.exists(path):
            with open(path, "rb") as fp:
                digest.update(fp.read())
        digest.update(b"\0")
    return digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--build-dir", default=None,
                        help="build dir holding compile_commands.json "
                             "(tree mode)")
    parser.add_argument("--files", nargs="*", default=None,
                        help="analyze exactly these files (fixture mode)")
    parser.add_argument("--root", default=None)
    parser.add_argument("--backend", choices=("auto", "textual", "cindex"),
                        default="auto")
    parser.add_argument("--lock-order", default=None,
                        help="checked-in lock-order edge list (default "
                             "scripts/lock_order.txt)")
    parser.add_argument("--baseline", default=None)
    parser.add_argument("--update-baseline", action="store_true")
    parser.add_argument("--cache", default=None)
    parser.add_argument("--expect", action="append", default=[],
                        metavar="CHECK=N",
                        help="fixture mode: require >= N findings of CHECK")
    parser.add_argument("--expect-clean", action="store_true",
                        help="fixture mode: require zero findings")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    root = args.root or repo_root()
    lock_order_path = args.lock_order or os.path.join(
        root, "scripts", "lock_order.txt")

    overlay = None
    backend = args.backend
    cindex = load_cindex() if backend in ("auto", "cindex") else None
    if backend == "cindex" and cindex is None:
        print("rock_analyze.py: --backend cindex requested but "
              "clang.cindex is unavailable", file=sys.stderr)
        return 2

    if args.files is not None:
        findings = analyze(args.files, root, lock_order_path)
        return report_fixture(findings, args)

    if args.build_dir is None:
        print("rock_analyze.py: need --build-dir or --files",
              file=sys.stderr)
        return 2

    paths, db = tree_paths(args.build_dir, root)
    tokens = token_paths(root)
    key = config_hash(root, args.build_dir, lock_order_path,
                      sorted(set(paths) | set(tokens)))
    findings = None
    if args.cache and os.path.exists(args.cache):
        with open(args.cache, encoding="utf-8") as fp:
            cached = json.load(fp)
        if cached.get("key") == key:
            findings = [Finding(*f) for f in cached["findings"]]
            print("rock_analyze.py: cache hit (%s)" % args.cache)

    if findings is None:
        if cindex is not None:
            print("rock_analyze.py: building libclang type overlay "
                  "(%d TUs)" % sum(1 for p in paths if p.endswith(".cc")))
            overlay = build_overlay(
                cindex, db, root,
                [os.path.join(root, p) for p in paths])
            backend_used = "cindex"
        else:
            backend_used = "textual"
        print("rock_analyze.py: analyzing %d files (backend: %s), "
              "token rules over %d" % (len(paths), backend_used, len(tokens)))
        findings = analyze(paths, root, lock_order_path, overlay, tokens)
        if args.cache:
            with open(args.cache, "w", encoding="utf-8") as fp:
                json.dump({"key": key,
                           "findings": [list(f) for f in findings]}, fp)

    agg = aggregate(findings)
    baseline_path = args.baseline or os.path.join(
        root, "scripts", "rock_analyze_baseline.txt")
    if args.update_baseline:
        write_baseline(baseline_path, agg)
        print("rock_analyze.py: baseline rewritten (%d finding classes)"
              % len(agg))
        return 0
    baseline = read_baseline(baseline_path)
    regressions = diff_against_baseline(agg, baseline)
    fixed = [key for key in baseline if key not in agg]
    if fixed:
        print("rock_analyze.py: %d baseline finding class(es) no longer "
              "fire — consider --update-baseline to ratchet down"
              % len(fixed))
    if regressions:
        print("NEW rock_analyze findings (not in baseline):")
        by_key = collections.defaultdict(list)
        for f in findings:
            by_key[(f.path, f.check)].append(f)
        for rel, check, count, allowed in regressions:
            print("  %s\t%s\t%d (baseline %d)" % (rel, check, count,
                                                  allowed))
            for f in by_key[(rel, check)]:
                print("    %s:%d: %s" % (f.path, f.line, f.message))
        return 1
    print("rock_analyze.py: no new findings (%d existing, %d baselined)"
          % (len(findings), len(baseline)))
    return 0


def report_fixture(findings, args):
    for f in sorted(findings):
        print("%s:%d: [%s] %s" % (f.path, f.line, f.check, f.message))
    counts = collections.Counter(f.check for f in findings)
    failures = []
    if args.expect_clean and findings:
        failures.append("expected zero findings, got %d" % len(findings))
    for spec in args.expect:
        check, _, want = spec.partition("=")
        if check not in CHECKS:
            failures.append("unknown check in --expect: %r" % check)
            continue
        if counts.get(check, 0) < int(want or "1"):
            failures.append("expected >= %s findings of %s, got %d" % (
                want or "1", check, counts.get(check, 0)))
    if failures:
        for failure in failures:
            print("rock_analyze.py: FAIL: " + failure, file=sys.stderr)
        return 1
    if args.expect or args.expect_clean:
        print("rock_analyze.py: fixture expectations met (%s)" %
              (dict(counts) if counts else "clean"))
        return 0
    return 1 if findings else 0


# ---------------------------------------------------------------------------
# Self test
# ---------------------------------------------------------------------------

SELF_TEST_GUARDED_BAD = """
namespace rock::par {
struct WorkerQueue {
  common::Mutex mu;
  std::deque<size_t> queue ROCK_GUARDED_BY(mu);
  bool closed = false;
  int hits = 0;
};
}  // namespace rock::par
"""

SELF_TEST_GUARDED_GOOD = """
namespace rock::par {
struct WorkerQueue {
  common::Mutex mu;
  std::deque<size_t> queue ROCK_GUARDED_BY(mu);
  std::atomic<int> depth{0};
  // ROCK_ANALYZE(unguarded-ok: written once before workers start)
  bool seeded = false;
  const int capacity = 8;
};
}  // namespace rock::par
"""

SELF_TEST_NONDET_BAD = """
namespace rock {
struct Store {
  std::unordered_map<int, int> cache_;
  void Drain(std::vector<int>& out) {
    for (const auto& [k, v] : cache_) {
      out.push_back(v);
    }
  }
};
}  // namespace rock
"""

SELF_TEST_NONDET_GOOD = """
namespace rock {
struct Store {
  std::unordered_map<int, int> cache_;
  std::map<int, int> sorted_;
  int Sum() {
    int total = 0;
    for (const auto& [k, v] : cache_) {
      total += v;
    }
    for (const auto& [k, v] : sorted_) {
      Emit(k);
    }
    // ROCK_ANALYZE(ordered-ok: drained into a set, sorted by key below)
    for (const auto& [k, v] : cache_) {
      keys_.push_back(k);
    }
    return total;
  }
  void Emit(int k);
  std::vector<int> keys_;
};
}  // namespace rock
"""

SELF_TEST_LOCK_BAD = """
namespace rock {
struct A { common::Mutex mu; int x ROCK_GUARDED_BY(mu); };
struct B { common::Mutex mu; int y ROCK_GUARDED_BY(mu); };
void Forward(A& a, B& b) {
  common::MutexLock la(a.mu);
  common::MutexLock lb(b.mu);
}
void Backward(A& a, B& b) {
  common::MutexLock lb(b.mu);
  common::MutexLock la(a.mu);
}
}  // namespace rock
"""

SELF_TEST_LOCK_GOOD = """
namespace rock {
struct A { common::Mutex mu; int x ROCK_GUARDED_BY(mu); };
struct B { common::Mutex mu; int y ROCK_GUARDED_BY(mu); };
void Forward(A& a, B& b) {
  common::MutexLock la(a.mu);
  common::MutexLock lb(b.mu);
}
void Disjoint(A& a, B& b) {
  { common::MutexLock la(a.mu); }
  { common::MutexLock lb(b.mu); }
}
}  // namespace rock
"""

SELF_TEST_SIGNAL_BAD = """
namespace rock::obs {
void Helper() {
  malloc(32);
}
void SigprofHandler(int signo) {
  Helper();
  printf("tick");
}
}  // namespace rock::obs
"""

SELF_TEST_SIGNAL_GOOD = """
namespace rock::obs {
int ThisTid() { return syscall(186); }
void SigprofHandler(int signo) {
  int tid = ThisTid();
  counter.fetch_add(1, std::memory_order_relaxed);
  ::backtrace(pcs, 48);
}
}  // namespace rock::obs
"""

SELF_TEST_SPAN = """
namespace rock::core {
class Rock {
 public:
  int port() const { return port_; }
  void Detect() {
    ROCK_OBS_SPAN("rock.detect");
    Run();
  }
  void Correct();
  void Train();
 private:
  void Run();
  int port_ = 0;
};
void Rock::Correct() {
  Run();
  Run();
}
// ROCK_ANALYZE(no-span-ok: pure delegation, callee opens the span)
void Rock::Train() {
  Run();
}
}  // namespace rock::core
"""


# Token-rule fixtures, one per line: path | expected rule or "-" | content
# (\n in content is a newline).
SELF_TEST_TOKEN_CASES = r"""
src/par/widget.cc | - | common::Mutex mu_;
src/rules/eval.h | using-namespace | #pragma once\nusing namespace std;
src/rules/eval.cc | - | using namespace std;
src/rules/eval.h | pragma-once | #ifndef X\n#define X\n#endif
src/rules/eval.h | - | #pragma once
src/core/engine.cc | raw-stdio | std::cout << "hi";
src/core/engine.cc | raw-stdio | std::printf("x");
src/core/engine.cc | - | std::cerr << 1;  // ROCK_ANALYZE(raw-stdio-ok: demo)
src/common/strings.h | - | #pragma once\n__attribute__((format(printf, 1, 2)))
src/common/strings.cc | - | vsnprintf(buf, n, fmt, ap);
bench/bench_x.cc | - | std::cout << "bench output";
src/chase/chase.cc | nondeterminism | int r = rand();
src/discovery/sample.cc | nondeterminism | std::random_device rd;
src/common/rng.cc | - | uint64_t s = seed;
src/core/engine.cc | raw-socket | int fd = ::socket(AF_INET, 0, 0);
src/core/engine.cc | raw-socket | bind(fd, addr, len);
tests/obs_server_test.cc | raw-socket | listen(fd, 4);
src/obs/server.cc | raw-socket | int fd = ::socket(AF_INET, 0, 0);
src/obs/server.cc | raw-socket | ::send(fd, buf, n, MSG_NOSIGNAL);
src/serve/server.cc | raw-socket | int fd = ::socket(AF_INET, 0, 0);
src/serve/server.cc | raw-socket | #include <sys/socket.h>
src/serve/client.cc | raw-socket | connect(fd, addr, len);
src/serve/loadgen.cc | raw-socket | ::accept(fd, nullptr, nullptr);
src/common/net.cc | - | int fd = ::socket(AF_INET, 0, 0);
src/common/net.cc | - | #include <sys/socket.h>
src/serve/server.cc | - | // see <sys/socket.h> and send(2)
src/serve/server.cc | - | net::SendAll(client, frame);
src/par/executor.cc | - | auto f = std::bind(&X::Run, this);
src/par/executor.cc | - | ring.accept(unit);
src/par/executor.cc | - | queue->accept(unit);
src/obs/trace.cc | raw-clock | auto t = std::chrono::steady_clock::now();
src/par/executor.cc | raw-clock | clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
src/obs/resource.cc | - | clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
src/detect/detector.cc | raw-enumeration | eval.ForEachSatisfying(rule, cb);
src/chase/chase.cc | raw-enumeration | eval.ForEachSatisfying (rule, cb, {0});
src/core/engine.cc | raw-enumeration | evaluator.ForEachSatisfying(rule, cb);
src/serve/server.cc | raw-enumeration | eval.ForEachSatisfying(rule, cb);
src/detect/detector.cc | - | eval.Enumerate(rule, scope, blocking, sink);
src/detect/detector.cc | - | // unlike ForEachSatisfying(rule, cb)
src/rules/eval.cc | - | ForEachSatisfying(rule, cb);
src/discovery/miner.cc | - | eval.ForEachSatisfying(rule, cb);
tests/rules_test.cc | - | eval.ForEachSatisfying(rule, cb);
src/chase/chase.cc | raw-pool | par::WorkerPool pool(num_workers, options);
src/detect/detector.cc | raw-pool | auto units = par::BuildRowUnits(0, rel, n);
src/core/engine.cc | raw-pool | par::WorkerPool::ReplayUnrecovered(units, &r, f);
src/serve/server.cc | raw-pool | auto p = std::make_unique<par::WorkerPool>(2);
src/chase/chase.cc | raw-pool | auto s = par::WorkerPool(4).Replay(measured);
src/par/round.h | - | #pragma once\nconst WorkerPool pool(num_workers, options);
src/par/round.h | - | #pragma once\nauto n = WorkerPool::ReplayUnrecovered(u, &l, b);
src/chase/chase.cc | - | hits = par::RunRound<Hits>(rules, ctx, n, options, body, s);
src/detect/detector.cc | - | void Run(const par::WorkerPool& pool);
tests/fault_injection_test.cc | - | par::WorkerPool pool(4, options);
src/par/executor.cc | literal-plus-to-string | auto key = "u" + std::to_string(i);
src/serve/protocol.cc | literal-plus-to-string | return Err("bad verb " +\n    std::to_string(verb));
src/chase/chase.cc | literal-plus-to-string | s = std::to_string(a) + " tid " + std::to_string(b);
src/core/engine.cc | - | auto key = StrFormat("u%d", i);
src/core/engine.cc | - | std::string key = "u";\nkey += std::to_string(i);
src/core/engine.cc | - | auto key = std::to_string(i) + "u";
src/core/engine.cc | - | // "u" + std::to_string(i)
src/core/engine.cc | - | auto s = "a \" + std::to_string(" + f(i);
src/core/engine.cc | - | auto k = "u" + std::to_string(i);  // ROCK_ANALYZE(literal-plus-to-string-ok: demo)
tests/rules_test.cc | - | auto key = "t" + std::to_string(i);
tests/helper_test.cc | - | ok
"""


def _run_self_case(failures, label, sources, expected_counts,
                   declared_edges=frozenset()):
    files = [parse_file("src/fixture/%s_%d.cc" % (label, i), text)
             for i, text in enumerate(sources)]
    index = Index(files)
    findings = []
    check_nondeterministic_iteration(index, findings)
    check_guarded_fields(index, findings)
    check_lock_order(index, findings, set(declared_edges))
    check_signal_safety(index, findings)
    check_span_coverage(index, findings)
    counts = collections.Counter(f.check for f in findings)
    for check, want in expected_counts.items():
        if counts.get(check, 0) != want:
            failures.append(
                "%s: expected %d x %s, got %d (%s)" % (
                    label, want, check, counts.get(check, 0),
                    [(f.line, f.check, f.message[:60]) for f in findings]))
    for check in counts:
        if check not in expected_counts:
            failures.append("%s: unexpected %s findings: %s" % (
                label, check,
                [(f.line, f.message[:80]) for f in findings
                 if f.check == check]))


def self_test():
    failures = []

    # Tokenizer & annotation plumbing.
    tokens = tokenize("int x = 0; // ROCK_ANALYZE(ordered-ok: prose)\n")
    if any(t.text == "ROCK_ANALYZE" for t in tokens):
        failures.append("tokenizer did not strip comments")
    fm = parse_file("src/a.cc",
                    "// ROCK_ANALYZE(ordered-ok: justified here)\n"
                    "int x;\n")
    if not fm.annotation(2, "ordered-ok"):
        failures.append("annotation on preceding line not found")
    if fm.annotation(2, "unguarded-ok"):
        failures.append("annotation tag confusion")

    # Class parsing: fields, annotations, mutexes.
    fm = parse_file("src/b.h", SELF_TEST_GUARDED_BAD)
    if len(fm.classes) != 1 or len(fm.classes[0].fields) != 4:
        failures.append("class parse: got %s" % [
            (c.name, [f.name for f in c.fields]) for c in fm.classes])
    else:
        queue_field = fm.classes[0].field("queue")
        if "ROCK_GUARDED_BY" not in queue_field.annotations:
            failures.append("ROCK_GUARDED_BY annotation not parsed")

    _run_self_case(failures, "guarded_bad", [SELF_TEST_GUARDED_BAD],
                   {"guarded-field": 2})
    _run_self_case(failures, "guarded_good", [SELF_TEST_GUARDED_GOOD], {})
    _run_self_case(failures, "nondet_bad", [SELF_TEST_NONDET_BAD],
                   {"nondeterministic-iteration": 1})
    _run_self_case(failures, "nondet_good", [SELF_TEST_NONDET_GOOD], {})
    _run_self_case(failures, "lock_bad", [SELF_TEST_LOCK_BAD],
                   {"lock-order": 2},
                   declared_edges={("A::mu", "B::mu")})
    _run_self_case(failures, "lock_good", [SELF_TEST_LOCK_GOOD], {},
                   declared_edges={("A::mu", "B::mu")})
    _run_self_case(failures, "signal_bad", [SELF_TEST_SIGNAL_BAD],
                   {"signal-safety": 2})
    _run_self_case(failures, "signal_good", [SELF_TEST_SIGNAL_GOOD], {})
    _run_self_case(failures, "span", [SELF_TEST_SPAN],
                   {"span-coverage": 1})

    # Raw std::mutex is a guarded-field finding outside src/common/.
    fm = parse_file("src/c.cc", "std::mutex raw;\n")
    findings = []
    check_guarded_fields(Index([fm]), findings)
    if not any(f.check == "guarded-field" for f in findings):
        failures.append("raw std::mutex not flagged")
    fm = parse_file("src/common/mutex.h", "#pragma once\nstd::mutex m_;\n")
    findings = []
    check_guarded_fields(Index([fm]), findings)
    if findings:
        failures.append("src/common/ raw mutex wrongly flagged")

    # Token rules, fixture by fixture, then test registration: helper.cc
    # unregistered, helper2.cc named in cmake, real_test.cc globbed.
    token_cases = SELF_TEST_TOKEN_CASES.strip().split("\n")
    for case in token_cases:
        path, expected, content = (f.strip() for f in case.split("|", 2))
        findings = []
        check_token_rules(path, content.replace("\\n", "\n") + "\n",
                          findings)
        rules = sorted({f.check for f in findings})
        if rules != ([] if expected == "-" else [expected]):
            failures.append("%s %r: expected %s, got %s" % (
                path, content, expected, rules))
    findings = []
    check_test_registration(
        ["tests/helper.cc", "tests/helper2.cc", "tests/real_test.cc",
         "tests/thread_safety_compile/bad.cc"],
        "add_executable(helper2 helper2.cc)\n", findings)
    if [f.path for f in findings] != ["tests/helper.cc"]:
        failures.append("registration rule found %s, expected only "
                        "tests/helper.cc" % [f.path for f in findings])

    # Baseline round-trip + ratchet diff.
    agg = {("src/a.cc", "lock-order"): 2, ("src/b.cc", "guarded-field"): 1}
    import tempfile
    with tempfile.NamedTemporaryFile("w", suffix=".txt",
                                     delete=False) as tmp:
        tmp_path = tmp.name
    try:
        write_baseline(tmp_path, agg)
        if read_baseline(tmp_path) != agg:
            failures.append("baseline round-trip mismatch")
    finally:
        os.unlink(tmp_path)
    if diff_against_baseline(agg, dict(agg)):
        failures.append("identical baseline reported regressions")
    shrunk = dict(agg)
    shrunk[("src/a.cc", "lock-order")] = 1
    regressions = diff_against_baseline(agg, shrunk)
    if [(r[0], r[1]) for r in regressions] != [("src/a.cc", "lock-order")]:
        failures.append("ratchet diff wrong: %s" % regressions)

    # Lock-order file parsing.
    import tempfile
    with tempfile.NamedTemporaryFile("w", suffix=".txt",
                                     delete=False) as tmp:
        tmp.write("# comment\nFaultState::mu -> WorkerQueue::mu  # drain\n")
        tmp_path = tmp.name
    try:
        edges = load_lock_order(tmp_path)
        if edges != {("FaultState::mu", "WorkerQueue::mu")}:
            failures.append("lock_order parse: %s" % edges)
    finally:
        os.unlink(tmp_path)

    if failures:
        print("rock_analyze.py self-test FAILED:")
        for failure in failures:
            print("  " + failure)
        return 1
    print("rock_analyze.py self-test passed (%d token fixtures)" %
          len(token_cases))
    return 0


if __name__ == "__main__":
    sys.exit(main())
