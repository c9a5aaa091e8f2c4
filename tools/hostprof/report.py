#!/usr/bin/env python3
"""Turns a hostprof sample file ($PROF_OUT.<pid>, written by prof.c) into a
profile: the process's CPU times and page faults, then flat by innermost
inline frame, flat by physical function, inclusive, libc's leaves by their
first non-libc caller, the samples credited to the layers of the DSM stack,
and optionally the callees of one function. Rows that are libc's malloc
internals say so.

    report.py /tmp/prof.1234 [--top 20] [--callees FN]

Needs binutils' readelf and addr2line, and the profiled binaries still at
the paths they ran from. See README.md.
"""
import argparse
import collections
import os
import re
import subprocess
import sys

HASH = re.compile(r"::h[0-9a-f]{16}$")

# Rows that are the C allocator's own code (README.md, Limits): the exported
# symbol a stripped libc attributes malloc/free internals to, and samples
# whose frame walk never left libc (malloc is built without frame pointers).
WALK_ENDED_IN_LIBC = "(the walk ended in libc)"
MALLOC_ROWS = {"__default_morecore [libc.so.6]", WALK_ENDED_IN_LIBC}

# The layers of the stack (docs/PAPER_MAP.md read as a cost breakdown), each
# with the module paths whose code is its own, first match wins.
LAYERS = [
    ("mempage", ("adsm_mempage",)),
    ("vclock", ("adsm_vclock",)),
    ("netsim", ("adsm_netsim",)),
    ("engine", ("adsm_engine",)),
    ("parking_lot shim", ("parking_lot",)),
    ("core protocol (protocol, world, notice)",
     ("adsm_core::protocol", "adsm_core::world", "adsm_core::notice")),
    ("access (memio, proc)", ("adsm_core::memio", "adsm_core::proc")),
    ("core system", ("adsm_core::system",)),
    ("core, other modules", ("adsm_core",)),
    ("apps", ("adsm_apps",)),
]
MALLOC_LAYER = "malloc internals"
# libc leaves that are the allocator itself, whoever called it.
MALLOC_FN = re.compile(
    r"^(malloc|free|cfree|calloc|realloc|_int_\w+|__libc_\w+|sysmalloc|systrim|"
    r"malloc_consolidate|unlink_chunk|tcache_\w+|__default_morecore)\b"
)
OTHER_LAYER = "other (std, the benchmark, unresolved)"


def owning_paths(fn):
    """The module paths a frame's code may belong to: a plain path as is;
    for `<Type as Trait>::f` the type's path, then the trait's (an impl
    lives with one or the other); for `<Type>::f` the type's."""
    if not fn.startswith("<"):
        return [fn]
    depth = 0
    for i, c in enumerate(fn):
        depth += c == "<"
        depth -= c == ">"
        if depth == 0:
            inner = fn[1:i]
            break
    else:
        return [fn]
    return [part.strip() for part in inner.split(" as ", 1)]


def layer_of(fn):
    """The layer whose code `fn` is, or None for std, core, alloc, libc and
    anything else outside the stack."""
    for path in owning_paths(fn):
        for layer, prefixes in LAYERS:
            if any(path.startswith(p) for p in prefixes):
                return layer
    return None


def load_segments(path):
    """PT_LOAD segments of an ELF file as (file offset, vaddr, file size)."""
    out = subprocess.run(["readelf", "-lW", path], capture_output=True, text=True, check=True)
    segs = []
    for line in out.stdout.splitlines():
        f = line.split()
        if len(f) >= 6 and f[0] == "LOAD":
            segs.append((int(f[1], 16), int(f[2], 16), int(f[4], 16)))
    return segs


class Mapping:
    def __init__(self, line):
        # 55d0c8a00000-55d0c8b00000 r-xp 0003f000 fd:01 1234   /path/to/bin
        f = line.split(None, 5)
        lo, hi = f[0].split("-")
        self.lo, self.hi = int(lo, 16), int(hi, 16)
        self.offset = int(f[2], 16)
        self.path = f[5].strip() if len(f) > 5 else ""
        self.segs = None

    def vaddr(self, addr):
        """The link-time address of `addr`, or None if no segment holds it.

        The kernel reports where in the *file* the mapping starts; DWARF
        and the symbol table speak of *virtual* addresses. In a PIE the
        two differ by the text segment's p_vaddr - p_offset (a page,
        with the linker this toolchain uses), so go through the program
        headers instead of assuming they agree.
        """
        if self.segs is None:
            self.segs = load_segments(self.path)
        off = addr - self.lo + self.offset
        for p_offset, p_vaddr, p_filesz in self.segs:
            if p_offset <= off < p_offset + p_filesz:
                return off - p_offset + p_vaddr
        return None


def symbolise(path, vaddrs):
    """vaddr -> [function], innermost inline frame first."""
    query = sorted(vaddrs)
    proc = subprocess.run(
        ["addr2line", "-a", "-f", "-C", "-i", "-e", path],
        input="".join(f"0x{v:x}\n" for v in query),
        capture_output=True,
        text=True,
        check=True,
    )
    frames, cur = {}, None
    lines = proc.stdout.splitlines()
    i = 0
    while i < len(lines):
        if lines[i].startswith("0x") and i + 1 < len(lines) and " " not in lines[i]:
            cur = frames.setdefault(int(lines[i], 16), [])
            i += 1
            continue
        # A function name, then its file:line (not reported).
        cur.append(HASH.sub("", lines[i]))
        i += 2
    return frames


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("samples", help="a $PROF_OUT.<pid> file")
    ap.add_argument("--top", type=int, default=20, help="rows per table (default 20)")
    ap.add_argument("--callees", metavar="FN", help="also: where samples under FN (substring) go next")
    args = ap.parse_args()

    maps, stacks, dropped, rusage = [], [], 0, None
    with open(args.samples) as f:
        for line in f:
            if line.startswith("M "):
                maps.append(Mapping(line[2:]))
            elif line.startswith("S "):
                stacks.append([int(a, 16) for a in line.split()[1:]])
            elif line.startswith("D "):
                dropped = int(line.split()[1])
            elif line.startswith("R "):
                rusage = line.split()[1:]
    if not stacks:
        sys.exit(f"{args.samples}: no samples (did the run use any CPU time?)")

    def locate(addr):
        for m in maps:
            if m.lo <= addr < m.hi:
                return m
        return None

    # A return address names the instruction *after* the call, which may
    # already belong to the next line or the next inlined callee: look up
    # the byte before it. The sampled RIP is looked up as is.
    wanted = collections.defaultdict(set)  # path -> vaddrs
    resolved = {}  # (addr, is_return) -> (path, vaddr) or label
    for stack in stacks:
        for depth, addr in enumerate(stack):
            key = (addr, depth > 0)
            if key in resolved:
                continue
            m = locate(addr - 1 if depth else addr)
            if m is None:
                resolved[key] = "[unmapped]"
            elif not os.path.isfile(m.path):
                resolved[key] = m.path or "[anon]"
            else:
                v = m.vaddr(addr - 1 if depth else addr)
                if v is None:
                    resolved[key] = os.path.basename(m.path)
                else:
                    resolved[key] = (m.path, v)
                    wanted[m.path].add(v)
    tables = {path: symbolise(path, vs) for path, vs in wanted.items()}

    main_exe = maps[0].path

    def frames_of(key):
        r = resolved[key]
        if isinstance(r, str):
            return [r]
        path, v = r
        lib = "" if path == main_exe else f" [{os.path.basename(path)}]"
        return [fn + lib for fn in tables[path].get(v) or ["??"]]

    def in_libc(key):
        r = resolved[key]
        path = r if isinstance(r, str) else r[0]
        return os.path.basename(path).startswith("libc.so")

    flat_inline = collections.Counter()
    flat_phys = collections.Counter()
    inclusive = collections.Counter()
    callees = collections.Counter()
    libc_callers = collections.Counter()
    layers = collections.Counter()
    under = 0
    in_libc_leaf = 0
    for stack in stacks:
        # Leaf first; every physical frame expanded into its inline frames.
        expanded = []
        for depth, addr in enumerate(stack):
            fs = frames_of((addr, depth > 0))
            if depth == 0:
                flat_inline[fs[0]] += 1
                flat_phys[fs[-1]] += 1
            expanded.extend(fs)
        for fn in set(expanded):
            inclusive[fn] += 1
        if args.callees:
            hits = [i for i, fn in enumerate(expanded) if args.callees in fn]
            if hits:
                under += 1
                callees[expanded[hits[0] - 1] if hits[0] > 0 else "(self)"] += 1
        libc_leaf = in_libc((stack[0], False))
        malloc = False
        if libc_leaf:
            in_libc_leaf += 1
            keys = [(addr, depth > 0) for depth, addr in enumerate(stack)]
            owner = next((k for k in keys if not in_libc(k)), None)
            libc_callers[frames_of(owner)[-1] if owner else WALK_ENDED_IN_LIBC] += 1
            malloc = owner is None or expanded[0] in MALLOC_ROWS or MALLOC_FN.match(expanded[0])
        # A layer's own frames are the innermost ones that name it: frames
        # of std, core, alloc and libc (a copy, a fill, a lock) go to the
        # first frame outward that does, and malloc's internals are a row
        # of their own.
        if malloc:
            layers[MALLOC_LAYER] += 1
        else:
            layers[next(filter(None, map(layer_of, expanded)), OTHER_LAYER)] += 1

    total = len(stacks)
    print(f"{total} samples from {args.samples}" + (f" ({dropped} dropped: buffer full)" if dropped else ""))
    if rusage:
        utime, stime, minflt, majflt = rusage
        print(f"rusage: user {utime} s, system {stime} s, {minflt} minor faults, {majflt} major faults")
    else:
        print("rusage: not recorded (a sampler built before it wrote the R line)")

    def table(title, counter):
        print(f"\n{title}")
        for fn, n in counter.most_common(args.top):
            label = "  (malloc internals)" if fn in MALLOC_ROWS else ""
            print(f"  {100.0 * n / total:5.1f}%  {n:6d}  {fn}{label}")

    table("flat, by innermost inline frame", flat_inline)
    table("flat, by physical function", flat_phys)
    table("inclusive (samples with the function anywhere on the stack)", inclusive)
    table(
        f"libc leaves, by first non-libc frame ({in_libc_leaf} samples, "
        f"{100.0 * in_libc_leaf / total:.1f}% of all)",
        libc_callers,
    )
    print("\nlayers, each sample credited by its innermost frame that names one")
    for layer in [name for name, _ in LAYERS] + [MALLOC_LAYER, OTHER_LAYER]:
        print(f"  {100.0 * layers[layer] / total:5.1f}%  {layers[layer]:6d}  {layer}")
    if args.callees:
        print(f"\ncallees of *{args.callees}* ({under} samples, {100.0 * under / total:.1f}% of all)")
        for fn, n in callees.most_common(args.top):
            print(f"  {100.0 * n / max(under, 1):5.1f}%  {n:6d}  {fn}")


if __name__ == "__main__":
    main()
