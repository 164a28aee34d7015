#!/usr/bin/env python3
"""Keeps the docs/ tree honest. Ten checks, stdlib only:

1. Every relative markdown link in README.md and docs/*.md resolves to a
   real file.
2. With --cli PATH: the output of `pulphd_cli --help` and
   `pulphd_cli serve --help` appears verbatim in docs/cli.md, so the doc
   and the binary cannot drift apart.
3. The protocol spec (docs/protocol.md) is in lockstep with the parser
   header (src/serve/protocol.hpp): the version token, every error-code
   token, the numeric request limits (kMaxTrialsPerRequest,
   kMaxSamplesPerTrial, kMaxLineBytes, kMaxFrameBytes), the binary
   negotiation magic (kBinaryMagic), and every binary frame-type byte
   (kFrame* hex values) defined in the header appear in the doc.
4. docs/development.md is in lockstep with the static-analysis config:
   every clang-tidy check/group enabled in .clang-tidy appears in the
   doc's check table (and every disabled-within-a-group check in its
   "disabled" list), and the fuzz targets documented in the doc match
   the pulphd_add_fuzzer() registrations in fuzz/CMakeLists.txt exactly,
   in both directions.
5. docs/operations.md is in lockstep with the failpoint registry
   (kRegisteredFailpoints in src/common/failpoint.cpp): every registered
   point name is documented, and every dotted backticked name the doc
   presents as a failpoint is actually registered — both directions, so a
   stale doc or an undocumented probe fails CI.
6. Every bench binary named in README.md, docs/*.md, the verify skill
   (.claude/skills/verify/SKILL.md) and .github/workflows/ci.yml (a
   `bench_*` word) is a pulphd_add_bench() registration in
   bench/CMakeLists.txt, so no file can point at a bench that no longer
   builds; and every pulphd_add_bench() and pulphd_add_example() target
   is named in README.md or docs/*.md, so a binary cannot build
   undocumented.
7. The kernel rows of the checked-in BENCH_hd_ops.json (its set of
   "kernel" names) equal the kernel-row list in docs/benchmarks.md (the
   "* `name`" bullets under its "### Kernel rows" heading), both
   directions, so a deleted row cannot linger in the doc and a new row
   cannot go undocumented.
8. No orphan sources: every .hpp/.cpp under src/ is reached by the
   include graph of a non-test target (tools/, bench/, examples/, fuzz/,
   perfbench/src/). A reached header pulls in its same-stem .cpp; a .cpp
   with no header of its own (the ISA backends) is reached through the
   first project header it includes (kernels/backend_registry.hpp).
9. Every `Backend::<name>` written in README.md, docs/*.md or a comment
   of a src/ header or source file is a field of `struct Backend` in
   src/kernels/backend.hpp, so a renamed or deleted kernel cannot linger
   in the prose.
10. The per-connection bounds that docs/architecture.md states match the
   source: "N MiB + K B of undecoded input" is kMaxBufferedInputBytes
   (kMaxFrameBytes + K) and "N MiB of unsent output" is
   kMaxBufferedOutputBytes (src/serve/server.cpp), and
   "N MiB (`kMaxLineBytes`)", the threshold past which a drained buffer
   is released and past which a connection retains no sample storage, is
   kMaxLineBytes (src/serve/protocol.hpp).

Exit code 0 = all good; 1 = findings (printed one per line).
"""

import argparse
import json
import pathlib
import re
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
ERR_TOKEN_RE = re.compile(r'kErr\w+\s*=\s*"([a-z-]+)"')
VERSION_TOKEN_RE = re.compile(r'kProtocolVersionToken\s*=\s*"(\w+)"')
LIMIT_RE = re.compile(r"(kMaxTrialsPerRequest|kMaxSamplesPerTrial)\s*=\s*(\d+)")
LINE_LIMIT_RE = re.compile(r"kMaxLineBytes\s*=\s*1\s*<<\s*(\d+)")
FRAME_LIMIT_RE = re.compile(r"kMaxFrameBytes\s*=\s*1\s*<<\s*(\d+)")
BINARY_MAGIC_RE = re.compile(r'kBinaryMagic\s*=\s*"(\w+)"')
FRAME_TYPE_RE = re.compile(r"(kFrame\w+)\s*=\s*(0x[0-9A-Fa-f]{2})")


def doc_files():
    files = [REPO / "README.md"]
    files += sorted((REPO / "docs").glob("*.md"))
    return [f for f in files if f.exists()]


def check_links():
    problems = []
    for doc in doc_files():
        for target in LINK_RE.findall(doc.read_text(encoding="utf-8")):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            resolved = (doc.parent / path).resolve()
            if not resolved.exists():
                problems.append(f"{doc.relative_to(REPO)}: broken link -> {target}")
    return problems


def help_output(cli, args):
    result = subprocess.run([cli, *args], capture_output=True, text=True, check=False)
    if result.returncode != 0:
        return None, f"`{cli} {' '.join(args)}` exited {result.returncode} (want 0)"
    return result.stdout, None


def check_cli_help(cli):
    problems = []
    cli_doc = (REPO / "docs" / "cli.md").read_text(encoding="utf-8")
    for args in (["--help"], ["serve", "--help"]):
        output, error = help_output(cli, args)
        if error:
            problems.append(error)
            continue
        if output not in cli_doc:
            problems.append(
                f"docs/cli.md is out of sync with `pulphd_cli {' '.join(args)}`: "
                "the help output must appear verbatim in the doc"
            )
    return problems


def check_protocol_lockstep():
    problems = []
    header = (REPO / "src" / "serve" / "protocol.hpp").read_text(encoding="utf-8")
    spec = (REPO / "docs" / "protocol.md").read_text(encoding="utf-8")
    version = VERSION_TOKEN_RE.search(header)
    if not version:
        problems.append("src/serve/protocol.hpp: kProtocolVersionToken not found")
    elif f"`{version.group(1)}`" not in spec:
        problems.append(f"docs/protocol.md never names the version token `{version.group(1)}`")
    codes = ERR_TOKEN_RE.findall(header)
    if not codes:
        problems.append("src/serve/protocol.hpp: no kErr* tokens found")
    for code in codes:
        if f"`{code}`" not in spec:
            problems.append(f"docs/protocol.md is missing error code `{code}`")
    limits = LIMIT_RE.findall(header)
    if len(limits) != 2:
        problems.append("src/serve/protocol.hpp: expected kMaxTrialsPerRequest and "
                        "kMaxSamplesPerTrial as decimal literals")
    for name, value in limits:
        if value not in spec:
            problems.append(f"docs/protocol.md never states the {name} limit ({value})")
    line_limit = LINE_LIMIT_RE.search(header)
    if not line_limit:
        problems.append("src/serve/protocol.hpp: kMaxLineBytes (1 << N) not found")
    else:
        mib = (1 << int(line_limit.group(1))) >> 20
        if f"{mib} MiB" not in spec:
            problems.append(f"docs/protocol.md never states the line limit ({mib} MiB)")
    frame_limit = FRAME_LIMIT_RE.search(header)
    if not frame_limit:
        problems.append("src/serve/protocol.hpp: kMaxFrameBytes (1 << N) not found")
    else:
        mib = (1 << int(frame_limit.group(1))) >> 20
        if f"{mib} MiB" not in spec:
            problems.append(f"docs/protocol.md never states the frame limit ({mib} MiB)")
    magic = BINARY_MAGIC_RE.search(header)
    if not magic:
        problems.append("src/serve/protocol.hpp: kBinaryMagic not found")
    elif f"`{magic.group(1)}`" not in spec:
        problems.append(f"docs/protocol.md never names the binary magic `{magic.group(1)}`")
    frame_types = FRAME_TYPE_RE.findall(header)
    if not frame_types:
        problems.append("src/serve/protocol.hpp: no kFrame* type bytes found")
    for name, value in frame_types:
        if f"`{value}`" not in spec:
            problems.append(f"docs/protocol.md is missing frame type {name} (`{value}`)")
    return problems


FAILPOINT_ARRAY_RE = re.compile(
    r"kRegisteredFailpoints\[\]\s*=\s*\{(.*?)\};", re.DOTALL
)
FAILPOINT_NAME_RE = re.compile(r'"([a-z]+\.[a-z]+)"')
# A documented failpoint is a backticked dotted name like `io.write`; the
# dotted shape keeps ordinary backticked identifiers out of the check.
FAILPOINT_DOC_RE = re.compile(r"`([a-z]+\.[a-z]+)`")


def check_failpoint_lockstep():
    problems = []
    source = (REPO / "src" / "common" / "failpoint.cpp").read_text(encoding="utf-8")
    array = FAILPOINT_ARRAY_RE.search(source)
    if not array:
        return ["src/common/failpoint.cpp: kRegisteredFailpoints[] not found"]
    registered = set(FAILPOINT_NAME_RE.findall(array.group(1)))
    if not registered:
        return ["src/common/failpoint.cpp: kRegisteredFailpoints[] is empty"]
    doc_path = REPO / "docs" / "operations.md"
    if not doc_path.exists():
        return ["docs/operations.md is missing"]
    documented = set(FAILPOINT_DOC_RE.findall(doc_path.read_text(encoding="utf-8")))
    for name in sorted(registered - documented):
        problems.append(f"docs/operations.md never documents failpoint `{name}`")
    for name in sorted(documented - registered):
        problems.append(
            f"docs/operations.md documents failpoint `{name}` but "
            "src/common/failpoint.cpp does not register it"
        )
    return problems


FUZZER_DECL_RE = re.compile(r"pulphd_add_fuzzer\((\w+)\s+\w+\)")
FUZZ_TARGET_DOC_RE = re.compile(r"`fuzz_(?!replay_)(\w+)`")


def tidy_check_lists():
    """Parses .clang-tidy's Checks value into (enabled, disabled) lists."""
    text = (REPO / ".clang-tidy").read_text(encoding="utf-8")
    match = re.search(r"^Checks: >\n((?:  .+\n)+)", text, re.MULTILINE)
    if not match:
        return None, None
    entries = [e.strip() for e in match.group(1).replace("\n", " ").split(",")]
    entries = [e for e in entries if e and e != "-*"]
    enabled = [e for e in entries if not e.startswith("-")]
    disabled = [e[1:] for e in entries if e.startswith("-")]
    return enabled, disabled


def check_development_lockstep():
    problems = []
    doc_path = REPO / "docs" / "development.md"
    if not doc_path.exists():
        return ["docs/development.md is missing"]
    doc = doc_path.read_text(encoding="utf-8")

    enabled, disabled = tidy_check_lists()
    if enabled is None:
        problems.append(".clang-tidy: could not parse the `Checks: >` block")
    else:
        for check in enabled:
            if f"`{check}`" not in doc:
                problems.append(
                    f"docs/development.md is missing enabled clang-tidy check `{check}`"
                )
        for check in disabled:
            if f"`{check}`" not in doc:
                problems.append(
                    f"docs/development.md never names disabled clang-tidy check `{check}`"
                )

    cmake = (REPO / "fuzz" / "CMakeLists.txt").read_text(encoding="utf-8")
    declared = set(FUZZER_DECL_RE.findall(cmake))
    documented = set(FUZZ_TARGET_DOC_RE.findall(doc))
    if not declared:
        problems.append("fuzz/CMakeLists.txt: no pulphd_add_fuzzer() registrations found")
    for name in sorted(declared - documented):
        problems.append(f"docs/development.md never documents fuzz target `fuzz_{name}`")
    for name in sorted(documented - declared):
        problems.append(
            f"docs/development.md documents `fuzz_{name}` but fuzz/CMakeLists.txt "
            "does not register it"
        )
    return problems


BENCH_DECL_RE = re.compile(r"pulphd_add_bench\((\w+)\)")
EXAMPLE_DECL_RE = re.compile(r"pulphd_add_example\((\w+)\)")
# A leading "." or word character is a different word: `.bench_build/`
# is perfbench's build directory, not a bench.
BENCH_DOC_RE = re.compile(r"(?<![.\w])(bench_\w+)")
# Files that name bench binaries without being docs: they are scanned for
# stale names only.
BENCH_NAMING_FILES = (".claude/skills/verify/SKILL.md", ".github/workflows/ci.yml")


def check_bench_names():
    cmake = (REPO / "bench" / "CMakeLists.txt").read_text(encoding="utf-8")
    declared = set(BENCH_DECL_RE.findall(cmake))
    if not declared:
        return ["bench/CMakeLists.txt: no pulphd_add_bench() registrations found"]
    examples = set(EXAMPLE_DECL_RE.findall(
        (REPO / "examples" / "CMakeLists.txt").read_text(encoding="utf-8")))
    if not examples:
        return ["examples/CMakeLists.txt: no pulphd_add_example() registrations found"]
    problems = []
    named = set()
    docs = doc_files()
    for doc in docs + [REPO / f for f in BENCH_NAMING_FILES]:
        text = doc.read_text(encoding="utf-8")
        if doc in docs:
            named |= set(re.findall(r"\b\w+\b", text))
        for name in sorted(set(BENCH_DOC_RE.findall(text))):
            if name not in declared:
                problems.append(
                    f"{doc.relative_to(REPO)} names `{name}` but bench/CMakeLists.txt "
                    "does not register it"
                )
    for kind, targets in (("bench", declared), ("example", examples)):
        for name in sorted(targets - named):
            problems.append(f"{kind} target `{name}` is named in neither README.md nor docs/*.md")
    return problems


KERNEL_SECTION_RE = re.compile(r"^### Kernel rows\n(.*?)(?=^#|\Z)", re.MULTILINE | re.DOTALL)
KERNEL_ROW_DOC_RE = re.compile(r"^\* `(\w+)`", re.MULTILINE)


def check_kernel_rows():
    doc_path = REPO / "docs" / "benchmarks.md"
    section = KERNEL_SECTION_RE.search(doc_path.read_text(encoding="utf-8"))
    if not section:
        return ["docs/benchmarks.md: no `### Kernel rows` section found"]
    documented = set(KERNEL_ROW_DOC_RE.findall(section.group(1)))
    bench = json.loads((REPO / "BENCH_hd_ops.json").read_text(encoding="utf-8"))
    recorded = {row["kernel"] for row in bench["rows"]}
    problems = []
    for name in sorted(recorded - documented):
        problems.append(f"docs/benchmarks.md never lists kernel row `{name}` of BENCH_hd_ops.json")
    for name in sorted(documented - recorded):
        problems.append(
            f"docs/benchmarks.md lists kernel row `{name}` but BENCH_hd_ops.json has no such row"
        )
    return problems


INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)
SOURCE_SUFFIXES = (".hpp", ".cpp")
TARGET_DIRS = ("tools", "bench", "examples", "fuzz", "perfbench/src")


def quoted_includes(path):
    """The files `path` includes with quotes, resolved against src/ (the
    library include root), the including file's directory, then the repo."""
    found = []
    for name in INCLUDE_RE.findall(path.read_text(encoding="utf-8")):
        for base in (REPO / "src", path.parent, REPO):
            candidate = (base / name).resolve()
            if candidate.is_file():
                found.append(candidate)
                break
    return found


def check_orphan_sources():
    src = REPO / "src"
    sources = {p.resolve() for p in src.rglob("*") if p.suffix in SOURCE_SUFFIXES}
    # A headerless .cpp implements the first project header it includes.
    implements = {}
    for cpp in sources:
        if cpp.suffix == ".cpp" and cpp.with_suffix(".hpp") not in sources:
            includes = quoted_includes(cpp)
            if includes:
                implements.setdefault(includes[0], []).append(cpp)
    pending = [p.resolve() for d in TARGET_DIRS for p in (REPO / d).rglob("*")
               if p.suffix in SOURCE_SUFFIXES]
    reached = set()
    while pending:
        path = pending.pop()
        if path in reached:
            continue
        reached.add(path)
        pending += quoted_includes(path)
        if path.suffix == ".hpp":
            if path.with_suffix(".cpp").is_file():
                pending.append(path.with_suffix(".cpp"))
            pending += implements.get(path, [])
    return [f"{p.relative_to(REPO)} is reached by no non-test target "
            f"({', '.join(TARGET_DIRS)})" for p in sorted(sources - reached)]


BACKEND_STRUCT_RE = re.compile(r"^struct Backend \{\n(.*?)^\};", re.MULTILINE | re.DOTALL)
FUNCTION_POINTER_RE = re.compile(r"\(\*(\w+)\)")
BACKEND_REF_RE = re.compile(r"\bBackend::(\w+)")
COMMENT_RE = re.compile(r"//(.*)$", re.MULTILINE)


def check_backend_names():
    header = REPO / "src" / "kernels" / "backend.hpp"
    struct = BACKEND_STRUCT_RE.search(header.read_text(encoding="utf-8"))
    if not struct:
        return ["src/kernels/backend.hpp: no `struct Backend` found"]
    body = COMMENT_RE.sub("", struct.group(1))
    # A field is the (*name) of a function pointer, else a declaration's
    # last identifier.
    fields = set()
    for declaration in body.split(";"):
        words = re.findall(r"\w+", declaration)
        if words:
            pointer = FUNCTION_POINTER_RE.search(declaration)
            fields.add(pointer.group(1) if pointer else words[-1])
    texts = [(path, path.read_text(encoding="utf-8")) for path in doc_files()]
    texts += [(path, "\n".join(COMMENT_RE.findall(path.read_text(encoding="utf-8"))))
              for path in sorted((REPO / "src").rglob("*"))
              if path.suffix in SOURCE_SUFFIXES]
    problems = []
    for path, text in texts:
        for name in sorted(set(BACKEND_REF_RE.findall(text)) - fields):
            problems.append(f"{path.relative_to(REPO)} names `Backend::{name}`, which is not "
                            f"a field of struct Backend in src/kernels/backend.hpp")
    return problems


BUFFERED_INPUT_RE = re.compile(r"kMaxBufferedInputBytes\s*=\s*kMaxFrameBytes\s*\+\s*(\d+)")
BUFFERED_OUTPUT_RE = re.compile(r"kMaxBufferedOutputBytes\s*=\s*std::size_t\{(\d+)\}\s*<<\s*20")


def check_connection_bounds():
    server = (REPO / "src" / "serve" / "server.cpp").read_text(encoding="utf-8")
    header = (REPO / "src" / "serve" / "protocol.hpp").read_text(encoding="utf-8")
    doc = (REPO / "docs" / "architecture.md").read_text(encoding="utf-8")
    doc = re.sub(r"\s+", " ", doc)  # a phrase may wrap across lines
    buffered_input = BUFFERED_INPUT_RE.search(server)
    output = BUFFERED_OUTPUT_RE.search(server)
    line_limit = LINE_LIMIT_RE.search(header)
    frame_limit = FRAME_LIMIT_RE.search(header)
    if not (buffered_input and output and line_limit and frame_limit):
        return ["src/serve: kMaxBufferedInputBytes (kMaxFrameBytes + N), "
                "kMaxBufferedOutputBytes (std::size_t{N} << 20), kMaxLineBytes (1 << N) "
                "or kMaxFrameBytes (1 << N) not found"]
    phrases = {
        "kMaxBufferedInputBytes": f"{(1 << int(frame_limit.group(1))) >> 20} MiB + "
                                  f"{buffered_input.group(1)} B of undecoded input",
        "kMaxBufferedOutputBytes": f"{output.group(1)} MiB of unsent output",
        "kMaxLineBytes": f"{(1 << int(line_limit.group(1))) >> 20} MiB (`kMaxLineBytes`)",
    }
    return [f"docs/architecture.md never states {name} as \"{phrase}\""
            for name, phrase in phrases.items() if phrase not in doc]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cli", help="path to a built pulphd_cli for the help-sync check")
    options = parser.parse_args()
    problems = (check_links() + check_protocol_lockstep() + check_development_lockstep()
                + check_failpoint_lockstep() + check_bench_names() + check_kernel_rows()
                + check_orphan_sources() + check_backend_names() + check_connection_bounds())
    if options.cli:
        problems += check_cli_help(options.cli)
    for problem in problems:
        print(problem)
    if problems:
        print(f"{len(problems)} documentation problem(s)", file=sys.stderr)
        return 1
    checked = ("links + protocol lockstep + tidy/fuzz lockstep + failpoint lockstep"
               " + bench/example names + kernel rows + no orphan sources + Backend names"
               " + connection bounds"
               + (" + CLI help sync" if options.cli else ""))
    print(f"docs OK ({checked})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
