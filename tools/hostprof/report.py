#!/usr/bin/env python3
"""Turns a hostprof sample file ($PROF_OUT.<pid>, written by prof.c) into a
profile: flat by innermost inline frame, flat by physical function,
inclusive, and optionally the callees of one function.

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

    maps, stacks, dropped = [], [], 0
    with open(args.samples) as f:
        for line in f:
            if line.startswith("M "):
                maps.append(Mapping(line[2:]))
            elif line.startswith("S "):
                stacks.append([int(a, 16) for a in line.split()[1:]])
            elif line.startswith("D "):
                dropped = int(line.split()[1])
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

    flat_inline = collections.Counter()
    flat_phys = collections.Counter()
    inclusive = collections.Counter()
    callees = collections.Counter()
    under = 0
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

    total = len(stacks)
    print(f"{total} samples from {args.samples}" + (f" ({dropped} dropped: buffer full)" if dropped else ""))

    def table(title, counter):
        print(f"\n{title}")
        for fn, n in counter.most_common(args.top):
            print(f"  {100.0 * n / total:5.1f}%  {n:6d}  {fn}")

    table("flat, by innermost inline frame", flat_inline)
    table("flat, by physical function", flat_phys)
    table("inclusive (samples with the function anywhere on the stack)", inclusive)
    if args.callees:
        print(f"\ncallees of *{args.callees}* ({under} samples, {100.0 * under / total:.1f}% of all)")
        for fn, n in callees.most_common(args.top):
            print(f"  {100.0 * n / max(under, 1):5.1f}%  {n:6d}  {fn}")


if __name__ == "__main__":
    main()
