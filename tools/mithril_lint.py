#!/usr/bin/env python3
"""mithril-lint: domain-invariant linter for the MithriLog tree.

Layer 3 of the static-analysis gate (DESIGN.md §8). Enforces
repo-specific invariants no generic tool knows about:

  cycle-to-time      cycle counts may only be converted to time or
                     throughput inside src/common/simtime.h and src/sim/;
                     everywhere else they must flow through SimTime so
                     modeled GB/s stays structurally derived.
  dropped-status     a call to an unambiguously Status-returning function
                     used as a bare statement (belt and braces on top of
                     the [[nodiscard]] + -Werror compiler layer).
  direct-statset     StatSet is a deprecated shim; new code reports into
                     mithril::obs::MetricsRegistry.
  banned-rand-time   rand()/srand()/time()/std::random_device break
                     bit-for-bit reproducibility; use common/rng.h.
  raw-new-delete     no naked new/delete outside arena code; use
                     containers or smart pointers.
  cast-outside-bits  reinterpret_cast/const_cast only inside the audited
                     helpers in src/common/bits.h.
  fault-gating       fault-injection hooks must only be reachable
                     through an attached mithril::fault::FaultPlan —
                     no #ifdef fault gates, no static mutable fault
                     toggles, no drawRead()/drawWrite() outside a
                     plan object —
                     so a build with no plan attached is provably
                     fault-free and every injection is seed-replayable.
  thread-ownership   threads may only be created inside src/svc/ (the
                     service layer owns all concurrency; core stays
                     single-threaded by construction) and tests/svc/;
                     elsewhere requires a justified allow().
  raw-mutex          raw std lock primitives (std::mutex, lock_guard,
                     unique_lock, condition_variable, ...) only inside
                     src/common/mutex.h; everything else uses the
                     annotated mithril::Mutex/MutexLock/CondVar so
                     -Wthread-safety (the lint_tsa gate) can see every
                     lock. Locks moved from a location rule to this
                     compile-checked one — an annotated Mutex may live
                     anywhere, because the analysis checks its use.
  lock-order         same-file nesting of MutexLock acquisitions (plus
                     the declared transient noteBatch* calls) must
                     match the declared lock-order table (DESIGN.md
                     §13): a shard's queue mutex may take the svc idle
                     mutex; no other pair may nest.
  atomics-discipline memory_order_relaxed only inside the audited
                     lock-free files (obs histograms/metrics handles,
                     svc routing counters), and every relaxed line must
                     carry a `relaxed:` justification comment on the
                     line or within the 6 lines above.
  generation-bump    the journal generation stamp may only be minted
                     by the two chain-head writers, Journal::format()
                     and Journal::reopen(); any other write would fork
                     the generation chain that crash recovery's
                     budget-pinned replay walks.
  checkpoint-epoch   the superblock epoch and snapshot head may only
                     be written by the checkpoint protocol's own
                     publishers (Journal::format/checkpoint/reopen/
                     writeSuperblock); any other write could publish a
                     half-built snapshot or tear the ping-pong
                     superblock's atomic epoch bump.
  typed-extractor    typed-field parsing (addresses, MACs, hex ids,
                     timestamps) lives in src/typed/ so ingest-time
                     extraction and query-time predicates normalize
                     byte-identically (DESIGN.md §15); no libc inet_*
                     or bespoke parseIp*/extractMac*-style helpers
                     anywhere else.
  adhoc-latency      datapath latency samples must go through the
                     obs::Histogram / span APIs (StageLatency,
                     StageTimer, setSimDuration); feeding elapsed()/
                     seconds()/WallTimer arithmetic straight into a
                     counter or gauge loses the distribution and the
                     quantile exporters never see it.
  scratch-path       tests name scratch files only through
                     tests/testutil/scratch_path.h: a name built by
                     hand in the shared ::testing::TempDir() collides
                     with sibling tests under `ctest -j`.
  header-guard       include guards must be MITHRIL_<PATH>_H.
  include-order      a .cc includes its own header first; no "../"
                     uplevel includes; <system> before "project" blocks.

Suppression: append `// mithril-lint: allow(<rule>) <why>` to the line
(or the line above). Suppressions without a justification are findings
themselves.

Exit codes: 0 clean, 1 findings, 2 usage/internal error.
Stdlib-only by design; runs anywhere python3 runs.
"""

import argparse
import os
import re
import sys

# ---------------------------------------------------------------------------
# Scan sets and per-rule allowlists (paths are repo-relative, '/'-separated).

SCAN_DIRS = ("src", "bench", "examples", "tests", "tools")
SOURCE_EXTS = (".cc", ".cpp", ".h", ".hpp")
# Known-bad fixtures: lint fixtures (fed explicitly by the selftest)
# and the WILL_FAIL thread-safety-analysis fixtures.
EXCLUDE_PARTS = ("tests/lint/fixtures", "tests/tsa/fixtures")

ALLOW = {
    # SimTime itself and the device models own cycle->time conversion.
    "cycle-to-time": ("src/common/simtime.h", "src/sim/"),
    # The shim, its legacy holders (bound through CounterSink), the obs
    # bridge that implements the sink, and their direct tests.
    "direct-statset": (
        "src/common/stats.h",
        "src/common/stats.cc",
        "src/storage/ssd_model.",
        "src/index/inverted_index.",
        "src/typed/typed_index.",
        "src/obs/",
        "tests/common/stats_test.cc",
        "tests/obs/",
    ),
    "banned-rand-time": ("src/common/rng.h",),
    # The fault subsystem itself declares/implements the hooks.
    "fault-gating": ("src/fault/",),
    "raw-new-delete": ("arena",),  # any file with arena in its name
    "cast-outside-bits": ("src/common/bits.h",),
    # The service layer owns all thread creation; its tests drive
    # real interleavings under the TSan tier.
    "thread-ownership": ("src/svc/", "tests/svc/"),
    # The annotated wrappers are the one audited home of the raw std
    # primitives.
    "raw-mutex": ("src/common/mutex.h",),
    # The histogram layer itself is where durations legitimately meet
    # record(); its tests feed synthetic durations on purpose.
    "adhoc-latency": ("src/obs/", "tests/obs/"),
    # The typed subsystem is the audited home of field parsing; its
    # tests exercise the parsers directly.
    "typed-extractor": ("src/typed/", "tests/typed/"),
    # The one helper that turns the test's identity into a file name.
    "scratch-path": ("tests/testutil/scratch_path.h",),
}

RULE_HINTS = {
    "cycle-to-time": "convert via SimTime::cycles(n, hz) and "
                     "throughputBps() from common/simtime.h",
    "dropped-status": "assign the Status, use MITHRIL_RETURN_IF_ERROR, "
                      "or (void)-cast with a justification comment",
    "direct-statset": "report through mithril::obs::MetricsRegistry "
                      "(see src/obs/metrics.h)",
    "banned-rand-time": "use mithril::Rng from common/rng.h with an "
                        "explicit seed",
    "raw-new-delete": "use std::vector/std::unique_ptr, or keep arena "
                      "allocation in a file named *arena*",
    "cast-outside-bits": "use asChars()/asByteSpan() from common/bits.h "
                         "or add an audited helper there",
    "fault-gating": "inject faults only through an attached "
                    "fault::FaultPlan (see fault/fault_plan.h); no "
                    "#ifdef gates or global toggles",
    "thread-ownership": "create threads only in src/svc/ (see "
                        "svc/log_service.h for the concurrency model) "
                        "or justify the allow()",
    "raw-mutex": "use mithril::Mutex/MutexLock/CondVar from "
                 "common/mutex.h so -Wthread-safety can check the "
                 "lock (raw std primitives live only there)",
    "lock-order": "only the declared pair (shard queue mutex -> svc "
                  "idle mutex) may nest; restructure so other locks "
                  "are never held together (DESIGN.md §13)",
    "atomics-discipline": "keep relaxed atomics in the audited "
                          "lock-free files and justify each use with "
                          "a `relaxed:` comment nearby; default to "
                          "seq_cst (or a mutex) elsewhere",
    "generation-bump": "mint generations only in Journal::format()/"
                       "Journal::reopen(); a restore site (cursor "
                       "deserialize) needs a justified allow()",
    "checkpoint-epoch": "publish the epoch/snapshot head only from "
                        "Journal::format/checkpoint/reopen/"
                        "writeSuperblock; a restore site (cursor "
                        "deserialize) needs a justified allow()",
    "adhoc-latency": "record latency through obs::StageLatency/"
                     "StageTimer (obs/histogram.h) so the sample lands "
                     "in a quantile histogram, not a scalar",
    "typed-extractor": "parse addresses/hex ids/timestamps through "
                       "the typed subsystem (typed/typed_key.h, "
                       "typed/extract.h) so ingest and query "
                       "normalize identically; no inet_* or ad-hoc "
                       "parseIp/extractMac helpers outside src/typed/",
    "scratch-path": "name the file with testutil::scratchPath() "
                    "(tests/testutil/scratch_path.h), which adds the "
                    "full test name and the pid",
    "header-guard": "guard must be MITHRIL_<PATH>_H (path relative to "
                    "src/, or to the repo root outside src/)",
    "include-order": "own header first in a .cc; no \"../\" paths; "
                     "<system> includes before \"project\" includes",
}


def allowed(rule, relpath):
    return any(part in relpath for part in ALLOW.get(rule, ()))


# ---------------------------------------------------------------------------
# Lexical helpers.

_STRING_RE = re.compile(
    r'"(?:[^"\\]|\\.)*"|'  # string literal
    r"'(?:[^'\\]|\\.)*'"   # char literal
)
_LINE_COMMENT_RE = re.compile(r"//.*$")
_SUPPRESS_RE = re.compile(r"mithril-lint:\s*allow\((?P<rules>[\w, -]+)\)"
                          r"\s*(?P<why>.*)")


def strip_code(lines):
    """Returns lines with strings/comments blanked (same line numbers)."""
    out = []
    in_block = False
    for line in lines:
        if in_block:
            end = line.find("*/")
            if end < 0:
                out.append("")
                continue
            line = " " * (end + 2) + line[end + 2:]
            in_block = False
        line = _STRING_RE.sub('""', line)
        line = _LINE_COMMENT_RE.sub("", line)
        while True:
            start = line.find("/*")
            if start < 0:
                break
            end = line.find("*/", start + 2)
            if end < 0:
                line = line[:start]
                in_block = True
                break
            line = line[:start] + " " * (end + 2 - start) + line[end + 2:]
        out.append(line)
    return out


def suppressions(lines):
    """Maps line number -> set of rule names allowed there."""
    allow_at = {}
    for i, line in enumerate(lines, start=1):
        m = _SUPPRESS_RE.search(line)
        if m:
            rules = {r.strip() for r in m.group("rules").split(",")}
            # A suppression covers its own line and the next line, so it
            # can sit on the offending line or immediately above it.
            for target in (i, i + 1):
                allow_at.setdefault(target, set()).update(rules)
            if not m.group("why").strip():
                allow_at.setdefault("missing-why", []).append(i)
    return allow_at


# ---------------------------------------------------------------------------
# Rule implementations. Each yields (line_number, rule, message).

_CYCLE_ID = r"\w*[Cc]ycles?\w*"
_FREQ = r"(?:\w*(?:hz|Hz|freq|clock|period)\w*|[0-9.]+e[0-9]+)"
# A cycle identifier (possibly a getter call, possibly wrapped in casts,
# hence trailing close-parens) multiplied/divided with a frequency- or
# time-scale operand, in either order.
_CYCLE_TIME_RE = re.compile(
    rf"(?:\b{_CYCLE_ID}(?:\(\))?\s*\)*\s*[*/]\s*\(*\s*{_FREQ}\b)|"
    rf"(?:\b{_FREQ}(?:\(\))?\s*\)*\s*[*/]\s*"
    rf"(?:\w+(?:<[^<>]*>)?\()*\s*{_CYCLE_ID}\b)")


def check_cycle_to_time(relpath, code):
    for i, line in enumerate(code, start=1):
        if _CYCLE_TIME_RE.search(line):
            yield (i, "cycle-to-time",
                   "raw cycle<->time/frequency arithmetic outside "
                   "simtime.h/sim/")


_STATSET_RE = re.compile(r"\bStatSet\b")


def check_direct_statset(relpath, code):
    for i, line in enumerate(code, start=1):
        if _STATSET_RE.search(line):
            yield (i, "direct-statset",
                   "direct use of deprecated StatSet")


_RAND_TIME_RE = re.compile(
    r"(?<![\w.:>])(?:rand|srand|time)\s*\(|std::random_device")


def check_banned_rand_time(relpath, code):
    for i, line in enumerate(code, start=1):
        if _RAND_TIME_RE.search(line):
            yield (i, "banned-rand-time",
                   "non-deterministic rand()/srand()/time()/"
                   "random_device")


_NEW_DELETE_RE = re.compile(
    r"(?<![\w.:])(?:new\s+[A-Za-z_(]|delete(?:\[\])?\s+[A-Za-z_*(])")


def check_raw_new_delete(relpath, code):
    for i, line in enumerate(code, start=1):
        if _NEW_DELETE_RE.search(line):
            yield (i, "raw-new-delete",
                   "naked new/delete outside arena code")


_CAST_RE = re.compile(r"\b(?:reinterpret_cast|const_cast)\s*<")


def check_cast_outside_bits(relpath, code):
    for i, line in enumerate(code, start=1):
        if _CAST_RE.search(line):
            yield (i, "cast-outside-bits",
                   "reinterpret_cast/const_cast outside "
                   "src/common/bits.h")


# "fault"/"inject" in any case, but not the "fault" inside "default"
# (kDefaultCapacity and friends are not fault toggles).
_FAULT_WORD = r"(?:(?<![Dd][Ee])[Ff][Aa][Uu][Ll][Tt]|[Ii][Nn][Jj][Ee][Cc][Tt])"
_FAULT_PP_RE = re.compile(
    rf"^\s*#\s*(?:el)?if(?:n?def)?\b.*{_FAULT_WORD}")
# A namespace-scope/static mutable named like a fault switch. const and
# constexpr are immutable and therefore not toggles.
_FAULT_TOGGLE_RE = re.compile(
    rf"^\s*static\s+(?!const\b|constexpr\b)[\w:<>\s*&]*?"
    rf"\b\w*{_FAULT_WORD}\w*\s*(?:=|;|\{{)")
_DRAW_HOOK_RE = re.compile(
    r"(?:(\w+)\s*(?:\.|->)\s*)?\bdraw(?:Read|Write)\s*\(")


def check_fault_gating(relpath, code):
    for i, line in enumerate(code, start=1):
        if _FAULT_PP_RE.search(line):
            yield (i, "fault-gating",
                   "preprocessor-gated fault hook; builds must not "
                   "differ in fault behavior")
        if _FAULT_TOGGLE_RE.search(line):
            yield (i, "fault-gating",
                   "static mutable fault toggle; attach a FaultPlan "
                   "instead")
        for m in _DRAW_HOOK_RE.finditer(line):
            receiver = m.group(1) or ""
            if "plan" not in receiver.lower():
                yield (i, "fault-gating",
                       "drawRead()/drawWrite() not reached through a "
                       "FaultPlan object")


# Thread-creation sites only: declaring a thread/jthread (including
# inside a container type) or launching std::async. Deliberately NOT
# matched: std::this_thread (sleep/yield). Locks and condvars are no
# longer a location question — they are raw-mutex's: any file may hold
# an annotated mithril::Mutex, because -Wthread-safety checks its use
# wherever it lives.
_THREAD_RE = re.compile(
    r"std::(?:jthread|thread)\b(?!\s*::)|"
    r"std::async\s*\(")


def check_thread_ownership(relpath, code):
    for i, line in enumerate(code, start=1):
        if _THREAD_RE.search(line):
            yield (i, "thread-ownership",
                   "thread created outside src/svc/")


# Any spelling of the raw std lock primitives: declarations, template
# arguments (std::lock_guard<std::mutex>), and waits. The annotated
# wrappers in common/mutex.h are the one place these may appear —
# everywhere else a raw lock is invisible to -Wthread-safety, which is
# exactly the failure mode the capability layer exists to close.
_RAW_MUTEX_RE = re.compile(
    r"std::(?:recursive_|shared_|timed_|recursive_timed_)?mutex\b|"
    r"std::(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b|"
    r"std::condition_variable(?:_any)?\b")


def check_raw_mutex(relpath, code):
    for i, line in enumerate(code, start=1):
        if _RAW_MUTEX_RE.search(line):
            yield (i, "raw-mutex",
                   "raw std lock primitive outside common/mutex.h")


# ---------------------------------------------------------------------------
# lock-order: same-file scoped-lock nesting against the declared table.
#
# Lexical, per file: brace depth is tracked character-wise over the
# stripped code, every `MutexLock name(expr)` pushes the lock class of
# `expr` until its enclosing block closes, and every acquisition (or
# declared transiently-acquiring call) checks the currently-held stack
# against _LOCK_ORDER_OK. Cross-file nesting (e.g. a locked callee in
# another translation unit) is out of lexical reach — that half is the
# compile-time analysis' job; this rule pins the svc lock table.

_MUTEXLOCK_RE = re.compile(r"\bMutexLock\s+\w+\s*\(\s*([^()]*?)\s*\)")

# Lock classes by the variable's name fragment; anything else (`mu`,
# `mu_`) is a generic queue/registry-style leaf lock.
_LOCK_CLASSES = (
    ("log_mu", "shard-log"),
    ("idle_mu", "svc-idle"),
    ("done_mu", "query-done"),
)
_LOCK_LEAF = "queue"

# The declared table: the ONLY pair allowed to nest. append()/flush()
# bump the idle counter while holding the shard queue mutex.
_LOCK_ORDER_OK = {(_LOCK_LEAF, "svc-idle")}

# Calls that transiently take a lock of their own while the caller may
# be holding one (the cross-function edge of the table).
_CALL_ACQUIRES = {
    "noteBatchEnqueued": "svc-idle",
    "noteBatchDone": "svc-idle",
}
_ACQUIRING_CALL_RE = re.compile(
    r"\b(" + "|".join(_CALL_ACQUIRES) + r")\s*\(")


def _lock_class(expr):
    m = re.search(r"(\w+)\s*$", expr)
    name = m.group(1) if m else expr
    for frag, cls in _LOCK_CLASSES:
        if frag in name:
            return cls
    return _LOCK_LEAF


def check_lock_order(relpath, code):
    held = []  # (class, brace depth at acquisition)
    depth = 0
    for i, line in enumerate(code, start=1):
        events = [(m.start(), "acquire", _lock_class(m.group(1)))
                  for m in _MUTEXLOCK_RE.finditer(line)]
        events += [(m.start(), "transient", _CALL_ACQUIRES[m.group(1)])
                   for m in _ACQUIRING_CALL_RE.finditer(line)]
        events.sort()
        pos = 0
        for start, kind, cls in events:
            depth += (line.count("{", pos, start) -
                      line.count("}", pos, start))
            pos = start
            while held and depth < held[-1][1]:
                held.pop()
            for held_cls, _ in held:
                if (held_cls, cls) not in _LOCK_ORDER_OK:
                    yield (i, "lock-order",
                           f"acquires {cls} lock while holding "
                           f"{held_cls} lock; pair not in the declared "
                           "lock-order table")
            if kind == "acquire":
                held.append((cls, depth))
        depth += line.count("{", pos) - line.count("}", pos)
        while held and depth < held[-1][1]:
            held.pop()


# ---------------------------------------------------------------------------
# atomics-discipline: relaxed atomics stay in the audited lock-free
# files, and every relaxed line carries a nearby `relaxed:` comment
# saying why dropping the ordering is sound. Needs the RAW lines — the
# justification lives in comments.

_ATOMICS_AUDITED = (
    "src/obs/histogram.",     # HDR histogram cells (wait-free record)
    "src/obs/metrics.h",      # Counter/Gauge/LogHistogram handles
    "src/svc/log_service.cc", # routing rotation + readonly count
    "audited_relaxed",        # selftest fixture for this branch
)
_RELAXED_RE = re.compile(r"\bmemory_order_relaxed\b")
_RELAXED_WINDOW = 6


def check_atomics_discipline(relpath, raw):
    audited = any(part in relpath for part in _ATOMICS_AUDITED)
    for i, line in enumerate(raw, start=1):
        if not _RELAXED_RE.search(line):
            continue
        if not audited:
            yield (i, "atomics-discipline",
                   "memory_order_relaxed outside the audited "
                   "lock-free files")
            continue
        window = raw[max(0, i - 1 - _RELAXED_WINDOW):i]
        if not any("relaxed:" in w for w in window):
            yield (i, "atomics-discipline",
                   "memory_order_relaxed without a `relaxed:` "
                   "justification comment on the line or within "
                   f"{_RELAXED_WINDOW} lines above")


# ---------------------------------------------------------------------------
# generation-bump: the journal generation stamp may only be minted by
# the two chain-head writers — Journal::format() (a fresh chain) and
# Journal::reopen() (the next generation grafted onto the replayed
# head). Any other write forks the generation chain that recovery's
# budget-pinned replay walks. Member default initializers are
# construction, not a bump; the cursor-restore site in deserialize()
# carries an explicit allow().

_GEN_WRITE_RE = re.compile(
    r"\bgeneration_\s*(?:=(?!=)|\+=|-=)|"
    r"(?:\+\+|--)\s*generation_\b|\bgeneration_\s*(?:\+\+|--)")
# A member declaration with a default initializer: a type token
# precedes the name.
_GEN_DECL_RE = re.compile(r"^\s*(?:static\s+|const\s+|constexpr\s+)*"
                          r"[A-Za-z_][\w:<>]*\s+generation_\s*[={]")
# Out-of-class method definition; repo style puts the return type on
# its own line, so the definition line starts with `Class::name(`.
_METHOD_DEF_RE = re.compile(r"^(?P<cls>\w+)::(?P<name>~?\w+)\s*\(")
_GEN_MINTERS = {("Journal", "format"), ("Journal", "reopen")}


def check_generation_bump(relpath, code):
    func = None
    for i, line in enumerate(code, start=1):
        m = _METHOD_DEF_RE.match(line)
        if m is not None:
            func = (m.group("cls"), m.group("name"))
        if not _GEN_WRITE_RE.search(line):
            continue
        if _GEN_DECL_RE.match(line):
            continue
        if func in _GEN_MINTERS:
            continue
        yield (i, "generation-bump",
               "journal generation written outside Journal::format()/"
               "Journal::reopen()")


# ---------------------------------------------------------------------------
# checkpoint-epoch: the ping-pong superblock's epoch and the snapshot
# list head are the two cells whose single atomic publication makes
# checkpoint truncation crash-safe (DESIGN.md §14). Only the protocol's
# own publishers may write them — Journal::format() (epoch 1, no
# snapshot), Journal::checkpoint() (the truncation bump),
# Journal::reopen() (the collapse bump), and writeSuperblock() (the
# single mint point both funnel through). Any other write could expose
# a half-built snapshot or tear the old-or-new-never-a-mix guarantee.
# Member default initializers are construction, not publication; the
# cursor-restore sites in deserialize() carry explicit allow()s. The
# rule binds to Journal's *methods*, not a path: other classes may own
# an unrelated epoch_ (loggen's timestamp clock does), but only
# Journal's cells carry this protocol.

_CKPT_FIELDS = r"(?:epoch_|snapshot_head_)"
_CKPT_WRITE_RE = re.compile(
    rf"\b{_CKPT_FIELDS}\s*(?:=(?!=)|\+=|-=)|"
    rf"(?:\+\+|--)\s*{_CKPT_FIELDS}\b|"
    rf"\b{_CKPT_FIELDS}\s*(?:\+\+|--)")
_CKPT_DECL_RE = re.compile(
    rf"^\s*(?:static\s+|const\s+|constexpr\s+)*"
    rf"[A-Za-z_][\w:<>]*\s+{_CKPT_FIELDS}\s*[={{]")
_CKPT_MINTERS = {("Journal", "format"), ("Journal", "checkpoint"),
                 ("Journal", "reopen"), ("Journal", "writeSuperblock")}


def check_checkpoint_epoch(relpath, code):
    func = None
    for i, line in enumerate(code, start=1):
        m = _METHOD_DEF_RE.match(line)
        if m is not None:
            func = (m.group("cls"), m.group("name"))
        if not _CKPT_WRITE_RE.search(line):
            continue
        if func is None or func[0] != "Journal":
            continue
        if _CKPT_DECL_RE.match(line):
            continue
        if func in _CKPT_MINTERS:
            continue
        yield (i, "checkpoint-epoch",
               "superblock epoch/snapshot head written outside the "
               "checkpoint protocol's publishers")


# ---------------------------------------------------------------------------
# typed-extractor: typed-field parsing stays inside src/typed/ so the
# extraction run at ingest and the predicate parsing run at query time
# are the same audited code — the typed tier's exactness argument
# (DESIGN.md §15) is "same pure function both sides", which a second
# parser silently breaks. Flags the libc address parsers and bespoke
# parse/extract helpers named after typed fields; calls qualified with
# a namespace (typed::parseIp4) are the sanctioned route and do not
# match.

_TYPED_EXTRACT_RE = re.compile(
    r"\binet_(?:pton|ntop|aton|ntoa|addr|network)\s*\(|"
    r"\bgetaddrinfo\s*\(|"
    r"(?<!::)\b(?:parse|extract)"
    r"(?:Ip[46v]?|Mac|Hex|Timestamp|Rfc3339|Syslog|Cidr|Addr)"
    r"\w*\s*\(")


def check_typed_extractor(relpath, code):
    for i, line in enumerate(code, start=1):
        if _TYPED_EXTRACT_RE.search(line):
            yield (i, "typed-extractor",
                   "ad-hoc typed-field parsing outside src/typed/")


# A scalar-metric mutation (`add(`/`set(`/`record(`; the histogram
# layer's own verbs recordWallNs/recordSim/setSimDuration deliberately
# do not match) on a line that also computes a duration — elapsed(),
# seconds(), or a WallTimer mention. Keeping the computation on its own
# line is not a loophole worth closing: the rule targets the idiom of
# collapsing a latency sample into a scalar in one breath, which is how
# every ad-hoc datapath timing has been written here.
_ADHOC_CALL_RE = re.compile(r"\b(?:add|set|record)\s*\(")
_ADHOC_TIME_RE = re.compile(
    r"\belapsed\s*\(|\bseconds\s*\(|\bWallTimer\b")


def check_adhoc_latency(relpath, code):
    for i, line in enumerate(code, start=1):
        if _ADHOC_CALL_RE.search(line) and _ADHOC_TIME_RE.search(line):
            yield (i, "adhoc-latency",
                   "duration arithmetic fed into a scalar metric; "
                   "latency belongs in a quantile histogram")


_TEMPDIR_RE = re.compile(r"\bTempDir\s*\(")


def check_scratch_path(relpath, code):
    for i, line in enumerate(code, start=1):
        if _TEMPDIR_RE.search(line):
            yield (i, "scratch-path",
                   "TempDir() outside tests/testutil/scratch_path.h")


def expected_guard(relpath):
    rel = relpath[4:] if relpath.startswith("src/") else relpath
    return "MITHRIL_" + re.sub(r"[^A-Za-z0-9]", "_", rel).upper()


def check_header_guard(relpath, code):
    if not relpath.endswith((".h", ".hpp")):
        return
    guard = expected_guard(relpath)
    text = "\n".join(code)
    ifndef = re.search(r"#ifndef\s+(\w+)", text)
    if ifndef is None:
        yield (1, "header-guard", f"missing include guard {guard}")
        return
    if ifndef.group(1) != guard:
        line = text[:ifndef.start()].count("\n") + 1
        yield (line, "header-guard",
               f"guard {ifndef.group(1)} != expected {guard}")
    elif f"#define {guard}" not in text:
        yield (1, "header-guard", f"missing #define {guard}")


_INCLUDE_RE = re.compile(r'^\s*#\s*include\s+(?:"([^"]+)"|<([^>]+)>)')


def check_include_order(relpath, code):
    includes = []  # (line, path-or-None-for-system, is_project)
    for i, line in enumerate(code, start=1):
        m = _INCLUDE_RE.match(line)
        if m:
            project = m.group(1) is not None
            includes.append((i, m.group(1) or m.group(2), project))
    for i, path, project in includes:
        if project and path.startswith("../"):
            yield (i, "include-order", f'uplevel include "{path}"')
    if relpath.endswith((".cc", ".cpp")) and relpath.startswith("src/"):
        own = relpath[4:]
        own = re.sub(r"\.(cc|cpp)$", ".h", own)
        if includes and os.path.exists(os.path.join("src", own)):
            first = includes[0]
            if not (first[2] and first[1] == own):
                yield (first[0], "include-order",
                       f'first include must be own header "{own}"')
            # After the own header, <system> includes precede "project"
            # includes (project block may follow, never interleave).
            seen_project = False
            for i, path, project in includes[1:]:
                if project:
                    seen_project = True
                elif seen_project:
                    yield (i, "include-order",
                           f"<{path}> after project includes")
                    break


# ---------------------------------------------------------------------------
# dropped-status: two-pass cross-file rule.

_STATUS_DECL_RE = re.compile(
    r"(?:^|[\s;}])(?:\[\[nodiscard\]\]\s+)?(?:virtual\s+)?(?:static\s+)?"
    r"(?P<ret>[A-Za-z_][\w:]*)\s*\n?\s*(?P<name>[A-Za-z_]\w*)\s*\(",
    re.MULTILINE)
_KEYWORDS = {"if", "while", "for", "switch", "return", "sizeof", "case",
             "catch", "do", "else", "new", "delete", "operator"}
# Names shared with STL containers/algorithms: a bare `set.insert(x);`
# would be indistinguishable from CuckooTable::insert, so these stay
# with the compiler layer ([[nodiscard]] Status + -Werror) only.
_STL_NAMES = {"insert", "erase", "emplace", "emplace_back", "append",
              "assign", "push_back", "pop_back", "swap", "merge",
              "reserve", "resize", "clear", "count", "find", "at",
              "get", "reset", "write", "read", "run", "close", "open"}


def collect_status_names(files):
    """Function names that ONLY ever appear returning Status.

    A name also declared with any other return type anywhere in the tree
    is ambiguous and skipped — the compiler's [[nodiscard]] layer still
    covers those call sites.
    """
    status_names, other_names = set(), set()
    for relpath, code in files:
        if not relpath.endswith((".h", ".hpp")):
            continue
        text = "\n".join(code)
        for m in _STATUS_DECL_RE.finditer(text):
            ret, name = m.group("ret"), m.group("name")
            if name in _KEYWORDS or ret in _KEYWORDS:
                continue
            if ret == "Status":
                status_names.add(name)
            else:
                other_names.add(name)
    return status_names - other_names - _STL_NAMES


_CONSUMED_RE = re.compile(
    r"^\s*(?:return\b|=|\w[\w:<>,&*\s]*\s[&*]?\w+\s*=|\(void\)|"
    r"MITHRIL_RETURN_IF_ERROR|MITHRIL_ASSERT|EXPECT_|ASSERT_|expectOk)")


def check_dropped_status(relpath, code, status_names):
    if not status_names:
        return
    call_re = re.compile(
        r"^\s*(?:[\w\]\[]+(?:\.|->))?(?P<name>[A-Za-z_]\w*)\s*\(")
    for i, line in enumerate(code, start=1):
        m = call_re.match(line)
        if m is None or m.group("name") not in status_names:
            continue
        if _CONSUMED_RE.match(line):
            continue
        # Continuation of a multi-line expression (e.g. the argument of
        # MITHRIL_RETURN_IF_ERROR) is not a statement start.
        prev = next((code[j].rstrip() for j in range(i - 2, -1, -1)
                     if code[j].strip()), ";")
        if not prev.endswith((";", "{", "}", ":")):
            continue
        # Join continuation lines to see how the statement ends.
        stmt = line
        j = i
        while not stmt.rstrip().endswith((";", "{", "}")) \
                and j < len(code):
            stmt += code[j]
            j += 1
        if re.search(r"\)\s*;\s*$", stmt.rstrip()):
            yield (i, "dropped-status",
                   f"result of Status-returning {m.group('name')}() "
                   "is discarded")


# ---------------------------------------------------------------------------
# Driver.

SIMPLE_RULES = (
    check_cycle_to_time,
    check_direct_statset,
    check_banned_rand_time,
    check_raw_new_delete,
    check_cast_outside_bits,
    check_fault_gating,
    check_thread_ownership,
    check_raw_mutex,
    check_lock_order,
    check_atomics_discipline,
    check_generation_bump,
    check_checkpoint_epoch,
    check_typed_extractor,
    check_adhoc_latency,
    check_scratch_path,
    check_header_guard,
    check_include_order,
)
# Rules that need the raw text: code stripping blanks #include paths
# (header/include rules) and comments (the `relaxed:` justifications).
_RAW_RULES = {check_header_guard, check_include_order,
              check_atomics_discipline}
RULE_OF_CHECK = {
    check_cycle_to_time: "cycle-to-time",
    check_direct_statset: "direct-statset",
    check_banned_rand_time: "banned-rand-time",
    check_raw_new_delete: "raw-new-delete",
    check_cast_outside_bits: "cast-outside-bits",
    check_fault_gating: "fault-gating",
    check_thread_ownership: "thread-ownership",
    check_raw_mutex: "raw-mutex",
    check_lock_order: "lock-order",
    check_atomics_discipline: "atomics-discipline",
    check_generation_bump: "generation-bump",
    check_checkpoint_epoch: "checkpoint-epoch",
    check_typed_extractor: "typed-extractor",
    check_adhoc_latency: "adhoc-latency",
    check_scratch_path: "scratch-path",
    check_header_guard: "header-guard",
    check_include_order: "include-order",
}


def gather_files(root, paths):
    if paths:
        # Explicit paths are linted as-is (the self-test feeds the
        # known-bad fixtures this way).
        return sorted(os.path.relpath(p, root).replace(os.sep, "/")
                      for p in paths)
    found = []
    for d in SCAN_DIRS:
        for dirpath, _, names in os.walk(os.path.join(root, d)):
            for name in sorted(names):
                if name.endswith(SOURCE_EXTS):
                    rel = os.path.relpath(
                        os.path.join(dirpath, name), root)
                    found.append(rel.replace(os.sep, "/"))
    return [f for f in sorted(found)
            if not any(part in f for part in EXCLUDE_PARTS)]


def lint(root, paths):
    findings = []
    files = []
    for rel in gather_files(root, paths):
        full = os.path.join(root, rel)
        try:
            with open(full, encoding="utf-8", errors="replace") as fh:
                raw = fh.read().splitlines()
        except OSError as e:
            print(f"mithril-lint: cannot read {rel}: {e}",
                  file=sys.stderr)
            return 2
        files.append((rel, raw, strip_code(raw), suppressions(raw)))

    status_names = collect_status_names(
        [(rel, code) for rel, _, code, _ in files])

    for rel, raw, code, allow_at in files:
        for bad_line in allow_at.get("missing-why", []):
            findings.append((rel, bad_line, "suppression",
                             "allow() without a justification"))
        per_file = []
        for check in SIMPLE_RULES:
            rule = RULE_OF_CHECK[check]
            if allowed(rule, rel):
                continue
            # Preprocessor rules need the raw text: code stripping
            # blanks the "path" string of an #include line.
            lines = raw if check in _RAW_RULES else code
            per_file.extend(check(rel, lines))
        per_file.extend(check_dropped_status(rel, code, status_names))
        for line, rule, message in per_file:
            if rule in allow_at.get(line, set()):
                continue
            findings.append((rel, line, rule, message))

    for rel, line, rule, message in sorted(findings):
        hint = RULE_HINTS.get(rule, "")
        suffix = f" (hint: {hint})" if hint else ""
        print(f"{rel}:{line}: [{rule}] {message}{suffix}")
    if findings:
        print(f"mithril-lint: {len(findings)} finding(s)",
              file=sys.stderr)
        return 1
    print(f"mithril-lint: clean ({len(files)} files, "
          f"{len(status_names)} Status-returning names tracked)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repo root (default: this script's parent)")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("paths", nargs="*",
                        help="specific files (default: whole tree)")
    args = parser.parse_args()
    if args.list_rules:
        for rule, hint in RULE_HINTS.items():
            print(f"{rule}: {hint}")
        return 0
    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    return lint(root, args.paths)


if __name__ == "__main__":
    sys.exit(main())
