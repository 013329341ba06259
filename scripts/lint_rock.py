#!/usr/bin/env python3
"""Rock-specific lint pass.

Enforces repo conventions that neither the compiler nor clang-tidy check:

  using-namespace    no `using namespace` at any scope in headers.
  pragma-once        every header starts its include protection with
                     `#pragma once`.
  raw-stdio          no std::cout / std::cerr / printf-family output outside
                     bench/ and examples/ — library code logs via ROCK_LOG.
  nondeterminism     no rand() / std::random_device under src/ — the chase
                     and discovery must be bit-reproducible, so randomness
                     goes through the seeded rock::common::Rng.
  raw-socket         no socket()/bind()/listen()/accept()/connect() calls
                     outside the two audited networking seams: src/obs/
                     server.cc (TelemetryServer) and src/serve/ (rockd and
                     its client/load-generator stack).
  raw-clock          no steady_clock::now / clock_gettime( reads under src/
                     outside src/common/timer.h (SteadySeconds, Timer) and
                     src/obs/resource.cc (ThreadCpuSeconds): one wall clock
                     and one CPU clock, each with one owner.
  raw-enumeration    no ForEachSatisfying( calls under src/detect/,
                     src/chase/, src/core/ or src/serve/: detection and the
                     chase enumerate through rules::Evaluator::Enumerate,
                     the one enumerator that owns scopes, delta seeds and
                     blocking.
  unregistered-test  every tests/*.cc is picked up by tests/CMakeLists.txt
                     (the glob takes *_test.cc; anything else must be named
                     there explicitly or it silently never runs).

The former raw-mutex and raw-signal rules moved to the semantic analyzer
(scripts/rock_analyze.py), which owns all concurrency/signal invariants:
raw std:: locks are guarded-field findings, and signal/timer seam
confinement plus the SigprofHandler call-graph walk are signal-safety
findings. Each invariant has exactly one owner.

A line may opt out with a justification marker:
    ... // rock-lint: allow(<rule>)

Usage:
    scripts/lint_rock.py [--root DIR]    # lint the repo, exit 1 on findings
    scripts/lint_rock.py --self-test     # run the built-in fixture suite
"""

import argparse
import os
import re
import subprocess
import sys

# Directories whose sources are linted (relative to the repo root).
LINT_PREFIXES = ("src/", "tests/", "bench/", "examples/")

ALLOW_RE = re.compile(r"rock-lint:\s*allow\(([a-z-]+)\)")

USING_NAMESPACE_RE = re.compile(r"\busing\s+namespace\b")
# Lookbehind keeps attribute spellings like format(printf, 1, 2) and the
# wider printf family (snprintf, fprintf) from tripping the output rule;
# std::printf still matches because ':' is not in the class.
RAW_STDIO_RE = re.compile(
    r"std::cout\b|std::cerr\b|(?<![A-Za-z_])printf\s*\(|std::puts\b")
NONDETERMINISM_RE = re.compile(
    r"(?<![A-Za-z_:])rand\s*\(\s*\)|std::random_device\b")
# Bare POSIX calls, optionally `::`-qualified. The lookbehind keeps member
# calls (ring.accept(...)), qualified names (std::bind), and identifiers
# merely ending in a call name (MySocket(...)) from matching.
RAW_SOCKET_RE = re.compile(
    r"(?<![A-Za-z0-9_:.>])(?:::\s*)?"
    r"(?:socket|bind|listen|accept|accept4|connect)\s*\(")
RAW_CLOCK_RE = re.compile(
    r"steady_clock::now\b|(?<![A-Za-z0-9_])clock_gettime\s*\(")
CLOCK_OWNERS = ("src/common/timer.h", "src/obs/resource.cc")
RAW_ENUMERATION_RE = re.compile(r"\bForEachSatisfying\s*\(")
ENUMERATE_ONLY = ("src/detect/", "src/chase/", "src/core/", "src/serve/")


def strip_comments_and_strings(text):
    """Blanks out comments and string/char literals, preserving line
    structure, so token rules don't fire on prose or log messages."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            end = n if j < 0 else j + 2
            out.append("".join(ch if ch == "\n" else " "
                               for ch in text[i:end]))
            i = end
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            out.append(quote + " " * (min(j, n - 1) - i - 1) + quote)
            i = min(j + 1, n)
        else:
            out.append(c)
            i += 1
    return "".join(out)


def allowed_rules(line):
    return set(ALLOW_RE.findall(line))


def lint_file(path, text):
    """Lints one file; `path` is repo-relative with forward slashes.
    Returns a list of (path, line_number, rule, message)."""
    findings = []
    raw_lines = text.split("\n")
    code_lines = strip_comments_and_strings(text).split("\n")
    is_header = path.endswith(".h")

    def check(rule, regex, message, *, headers_only=False, skip=False):
        if skip or (headers_only and not is_header):
            return
        for lineno, code in enumerate(code_lines, start=1):
            if regex.search(code) and rule not in allowed_rules(
                    raw_lines[lineno - 1]):
                findings.append((path, lineno, rule, message))

    check("using-namespace", USING_NAMESPACE_RE,
          "`using namespace` in a header leaks into every includer",
          headers_only=True)
    check("raw-stdio", RAW_STDIO_RE,
          "library code logs via ROCK_LOG, not stdout/stderr",
          skip=path.startswith(("bench/", "examples/")))
    check("nondeterminism", NONDETERMINISM_RE,
          "use the seeded rock::common::Rng; rand()/random_device break "
          "reproducibility",
          skip=not path.startswith("src/"))
    check("raw-socket", RAW_SOCKET_RE,
          "networking goes through obs::TelemetryServer / HttpFetch or the "
          "src/serve/ stack; src/obs/server.cc and src/serve/ are the "
          "audited socket seams",
          skip=path == "src/obs/server.cc" or path.startswith("src/serve/"))
    check("raw-clock", RAW_CLOCK_RE,
          "read the clock through rock::SteadySeconds / Timer "
          "(src/common/timer.h) or obs::ThreadCpuSeconds",
          skip=not path.startswith("src/") or path in CLOCK_OWNERS)
    check("raw-enumeration", RAW_ENUMERATION_RE,
          "enumerate valuations through rules::Evaluator::Enumerate (one "
          "enumerator for detection and the chase)",
          skip=not path.startswith(ENUMERATE_ONLY))

    if is_header and "#pragma once" not in text:
        findings.append((path, 1, "pragma-once",
                         "headers use `#pragma once`"))
    return findings


def lint_test_registration(files, cmake_text):
    """Every top-level tests/*.cc must be globbed (*_test.cc) or named in
    tests/CMakeLists.txt."""
    findings = []
    for path in files:
        directory, name = os.path.split(path)
        if directory != "tests" or not name.endswith(".cc"):
            continue
        if name.endswith("_test.cc") or name in cmake_text:
            continue
        findings.append((path, 1, "unregistered-test",
                         "not matched by the *_test.cc glob and not named "
                         "in tests/CMakeLists.txt — it will never run"))
    return findings


def lint_tree(root):
    files = subprocess.run(
        ["git", "ls-files", "*.h", "*.cc"],
        capture_output=True, text=True, check=True, cwd=root,
    ).stdout.split()
    files = [f for f in files if f.startswith(LINT_PREFIXES)]
    findings = []
    for path in files:
        with open(os.path.join(root, path), encoding="utf-8") as fp:
            findings.extend(lint_file(path, fp.read()))
    cmake_path = os.path.join(root, "tests", "CMakeLists.txt")
    cmake_text = ""
    if os.path.exists(cmake_path):
        with open(cmake_path, encoding="utf-8") as fp:
            cmake_text = fp.read()
    findings.extend(lint_test_registration(files, cmake_text))
    return findings


# --------------------------- self test -----------------------------------

SELF_TEST_CASES = [
    # (path, content, expected rule or None)
    ("src/par/widget.cc", "common::Mutex mu_;\n", None),
    # raw std:: locks are rock_analyze.py's guarded-field check now.
    ("src/par/widget.cc", "std::mutex mu_;\n", None),
    ("src/rules/eval.h",
     "#pragma once\nusing namespace std;\n", "using-namespace"),
    ("src/rules/eval.cc", "using namespace std;\n", None),  # .cc is fine
    ("src/rules/eval.h", "#ifndef X\n#define X\n#endif\n", "pragma-once"),
    ("src/rules/eval.h", "#pragma once\n", None),
    ("src/core/engine.cc", 'std::cout << "hi";\n', "raw-stdio"),
    ("src/core/engine.cc", "std::printf(\"x\");\n", "raw-stdio"),
    ("src/common/strings.h",
     "#pragma once\n__attribute__((format(printf, 1, 2)))\n", None),
    ("src/common/strings.cc", "vsnprintf(buf, n, fmt, ap);\n", None),
    ("bench/bench_x.cc", 'std::cout << "bench output";\n', None),
    ("src/chase/chase.cc", "int r = rand();\n", "nondeterminism"),
    ("src/discovery/sample.cc", "std::random_device rd;\n",
     "nondeterminism"),
    ("src/common/rng.cc", "uint64_t s = seed;\n", None),
    ("src/core/engine.cc", "int fd = ::socket(AF_INET, 0, 0);\n",
     "raw-socket"),
    ("src/core/engine.cc", "bind(fd, addr, len);\n", "raw-socket"),
    ("tests/obs_server_test.cc", "listen(fd, 4);\n", "raw-socket"),
    ("src/obs/server.cc", "int fd = ::socket(AF_INET, 0, 0);\n", None),
    ("src/serve/server.cc", "int fd = ::socket(AF_INET, 0, 0);\n", None),
    ("src/serve/client.cc", "connect(fd, addr, len);\n", None),
    ("src/serve/loadgen.cc", "::accept(fd, nullptr, nullptr);\n", None),
    ("src/par/executor.cc", "auto f = std::bind(&X::Run, this);\n", None),
    ("src/par/executor.cc", "ring.accept(unit);\n", None),
    ("src/par/executor.cc", "queue->accept(unit);\n", None),
    ("src/obs/trace.cc", "auto t = std::chrono::steady_clock::now();\n",
     "raw-clock"),
    ("src/par/executor.cc", "clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);\n",
     "raw-clock"),
    ("src/obs/resource.cc", "clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);\n",
     None),
    ("src/detect/detector.cc",
     "eval.ForEachSatisfying(rule, cb);\n", "raw-enumeration"),
    ("src/chase/chase.cc",
     "eval.ForEachSatisfying (rule, cb, {0, b, e});\n", "raw-enumeration"),
    ("src/core/engine.cc", "evaluator.ForEachSatisfying(rule, cb);\n",
     "raw-enumeration"),
    ("src/serve/server.cc", "eval.ForEachSatisfying(rule, cb);\n",
     "raw-enumeration"),
    ("src/detect/detector.cc",
     "eval.Enumerate(rule, scope, blocking, scratch, sink);\n", None),
    ("src/detect/detector.cc",
     "// unlike ForEachSatisfying(rule, cb)\n", None),
    ("src/rules/eval.cc", "ForEachSatisfying(rule, cb);\n", None),
    ("src/discovery/miner.cc", "eval.ForEachSatisfying(rule, cb);\n", None),
    ("tests/rules_test.cc", "eval.ForEachSatisfying(rule, cb);\n", None),
    # Signal/timer seam confinement is rock_analyze.py's signal-safety
    # check now.
    ("src/core/engine.cc", "sigaction(SIGPROF, &sa, nullptr);\n", None),
    ("tests/helper_test.cc", "ok\n", None),
]


def self_test():
    failures = []
    for path, content, expected in SELF_TEST_CASES:
        findings = lint_file(path, content)
        rules = {f[2] for f in findings}
        if expected is None and rules:
            failures.append(f"{path!r}: expected clean, got {sorted(rules)}")
        elif expected is not None and expected not in rules:
            failures.append(
                f"{path!r}: expected {expected!r}, got {sorted(rules)}")

    # Registration rule: helper.cc unregistered, helper2.cc named in cmake,
    # real_test.cc globbed.
    reg = lint_test_registration(
        ["tests/helper.cc", "tests/helper2.cc", "tests/real_test.cc",
         "tests/thread_safety_compile/bad.cc"],
        "add_executable(helper2 helper2.cc)\n")
    reg_paths = {f[0] for f in reg}
    if reg_paths != {"tests/helper.cc"}:
        failures.append(f"registration rule found {sorted(reg_paths)}, "
                        "expected only tests/helper.cc")

    if failures:
        print("lint_rock.py self-test FAILED:")
        for failure in failures:
            print("  " + failure)
        return 1
    print(f"lint_rock.py self-test passed "
          f"({len(SELF_TEST_CASES)} fixtures + registration rule)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=None,
                        help="repo root (default: this script's parent)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in fixture suite and exit")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    findings = lint_tree(root)
    for path, lineno, rule, message in sorted(findings):
        print(f"{path}:{lineno}: [{rule}] {message}")
    if findings:
        print(f"\n{len(findings)} lint finding(s).", file=sys.stderr)
        return 1
    print("lint_rock.py: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
