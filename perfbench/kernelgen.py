"""Seeded generator of element-wise integer kernels in the rmtgpu text IR.

Every kernel has the same shape, so every seed costs about the same:

    x[i] = i                     (buffer 0, filled with its index)
    v    = chain of CHAIN ops over x[i], the scalar s, global_id and immediates
    w    = v of the lane (local_id ^ mask) in the same group, via LDS + barrier
    y[i] = op(v, w)              (buffer 1)

Only wrap-around 32-bit integer ops are used, so `reference` reproduces the
device result exactly.
"""

LOCAL = 64
CHAIN = 24
MASK32 = 0xFFFFFFFF


def _s32(v):
    v &= MASK32
    return v - (1 << 32) if v & 0x80000000 else v


def _u32(v):
    return v & MASK32


# IR op name -> Python semantics on u32 operands (the caller wraps to 32 bits)
BINOPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "xor": lambda a, b: a ^ b,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "min_s": lambda a, b: min(_s32(a), _s32(b)),
    "max_s": lambda a, b: max(_s32(a), _s32(b)),
    "min_u": lambda a, b: min(_u32(a), _u32(b)),
    "max_u": lambda a, b: max(_u32(a), _u32(b)),
}
SHIFTS = {
    "shl": lambda a, k: a << k,
    "lshr": lambda a, k: _u32(a) >> k,
    "ashr": lambda a, k: _s32(a) >> k,
}
COMBINE = ["add", "sub", "xor", "max_s", "min_u"]


def generate(rng, name):
    """Return (source text, program) for one kernel drawn from [rng]."""
    lines = [
        f"kernel {name}",
        "  param 0: global buffer x",
        "  param 1: global buffer y",
        "  param 2: scalar s",
        f"  lds tile: {LOCAL * 4} bytes",
        "{",
        "  r0 = arg(0)",
        "  r1 = arg(1)",
        "  r2 = arg(2)",
        "  r3 = global_id(0)",
        "  r4 = mad r3, 4, r0",
        "  r5 = load.global [r4]",
    ]
    # each op takes the running value and one of: 'x' the loaded element,
    # 's' the scalar, 'g' the global id, or an immediate
    regs = {"x": "r5", "s": "r2", "g": "r3"}
    prog = []
    cur, nxt = "r5", 6
    for _ in range(CHAIN):
        kind = rng.random()
        if kind < 0.15:
            op, k = rng.choice(sorted(SHIFTS)), rng.randint(1, 13)
            lines.append(f"  r{nxt} = {op} {cur}, {k}")
            prog.append(("shift", op, k))
        elif kind < 0.3:
            src, m = rng.choice("xsg"), rng.randint(1, 4095)
            lines.append(f"  r{nxt} = mad {cur}, {m}, {regs[src]}")
            prog.append(("mad", m, src))
        else:
            op = rng.choice(sorted(BINOPS))
            if rng.random() < 0.4:
                imm = rng.randint(0, 65535)
                lines.append(f"  r{nxt} = {op} {cur}, {imm}")
                prog.append(("bin", op, ("imm", imm)))
            else:
                src = rng.choice("xsg")
                lines.append(f"  r{nxt} = {op} {cur}, {regs[src]}")
                prog.append(("bin", op, src))
        cur, nxt = f"r{nxt}", nxt + 1
    mask = rng.choice([1, 2, 4, 8, 16, 32])
    comb = rng.choice(COMBINE)
    r = nxt
    lines += [
        f"  r{r} = local_id(0)",
        f"  r{r + 1} = lds_base(tile)",
        f"  r{r + 2} = mad r{r}, 4, r{r + 1}",
        f"  store.local [r{r + 2}], {cur}",
        "  barrier",
        f"  r{r + 3} = xor r{r}, {mask}",
        f"  r{r + 4} = mad r{r + 3}, 4, r{r + 1}",
        f"  r{r + 5} = load.local [r{r + 4}]",
        f"  r{r + 6} = {comb} {cur}, r{r + 5}",
        f"  r{r + 7} = mad r3, 4, r1",
        f"  store.global [r{r + 7}], r{r + 6}",
        "}",
    ]
    return "\n".join(lines) + "\n", (prog, mask, comb)


def reference(program, n, s):
    """Signed 32-bit values of buffer y after the kernel ran over n items
    with x[i] = i and scalar s."""
    prog, mask, comb = program
    v = []
    for i in range(n):
        env = {"x": i, "s": _u32(s), "g": i}
        cur = i
        for step in prog:
            if step[0] == "shift":
                cur = SHIFTS[step[1]](cur, step[2])
            elif step[0] == "mad":
                cur = cur * step[1] + env[step[2]]
            else:
                b = step[2]
                b = b[1] if isinstance(b, tuple) else env[b]
                cur = BINOPS[step[1]](_u32(cur), _u32(b))
            cur = _u32(cur)
        v.append(cur)
    out = []
    for i in range(n):
        partner = (i - i % LOCAL) + ((i % LOCAL) ^ mask)
        out.append(_s32(BINOPS[comb](v[i], v[partner])))
    return out
