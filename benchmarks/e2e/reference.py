"""Expected stdout of every corpus kernel, computed without the simulator.

Each function evaluates the kernel's arithmetic directly in Python, in
the order the C program performs it (per-thread partial sums, then the
sum over thread ids), so floating-point results print identically.
Integer kernels use closed forms.  The pthread baseline is never used
as the reference: it is one of the outputs being checked.
"""

from repro.bench.programs import STREAM_KERNELS


def _chunks(n, nthreads):
    """Block distribution used by primes/stream/dot: thread t takes
    ``[t*chunk, (t+1)*chunk)`` and the last thread takes the rest."""
    chunk = n // nthreads
    for tid in range(nthreads):
        lo = tid * chunk
        hi = n if tid == nthreads - 1 else lo + chunk
        yield lo, hi


def pi_approximation(nthreads=32, steps=16384):
    step = 1.0 / steps
    pi = 0.0
    for tid in range(nthreads):
        total = 0.0
        for i in range(tid, steps, nthreads):
            x = (i + 0.5) * step
            total = total + 4.0 / (1.0 + x * x)
        pi += total
    return "pi = %.6f\n" % (pi / steps)


def sum35(nthreads=32, limit=16384):
    def triangle(k):
        m = (limit - 1) // k
        return k * m * (m + 1) // 2
    return "sum35 = %d\n" % (triangle(3) + triangle(5) - triangle(15))


def count_primes(nthreads=32, limit=2048):
    if limit < 3:
        return "primes = 0\n"
    sieve = [True] * limit
    sieve[0] = sieve[1] = False
    for i in range(2, int(limit ** 0.5) + 1):
        if sieve[i]:
            for j in range(i * i, limit, i):
                sieve[j] = False
    return "primes = %d\n" % sum(sieve)


def stream(nthreads=32, n=1024):
    total = 0.0
    for lo, hi in _chunks(n, nthreads):
        local = 0.0
        for j in range(lo, hi):
            a = 1.0 + j
            c = a
            b = 3.0 * c
            c = a + b
            a = b + 3.0 * c
            local += a
        total += local
    return "stream checksum = %.1f\n" % total


def dot_product(nthreads=32, n=2048):
    result = 0.0
    for lo, hi in _chunks(n, nthreads):
        local = 0.0
        for j in range(lo, hi):
            local += (0.5 + j) * 2.0
        result += local
    return "dot = %.1f\n" % result


def _lu_diagonal(dim):
    """Doolittle elimination without pivoting of the benchmark's
    diagonally dominant matrix; returns U's diagonal."""
    mat = [[dim + 1.0 if i == j else 1.0 for j in range(dim)]
           for i in range(dim)]
    for k in range(dim - 1):
        for i in range(k + 1, dim):
            factor = mat[i][k] / mat[k][k]
            mat[i][k] = factor
            for j in range(k + 1, dim):
                mat[i][j] = mat[i][j] - factor * mat[k][j]
    return [mat[i][i] for i in range(dim)]


def lu_decomposition(nthreads=32, batch=32, dim=20):
    diagonal = _lu_diagonal(dim)
    total = 0.0
    for tid in range(nthreads):
        local = 0.0
        for _ in range(tid, batch, nthreads):
            for value in diagonal:
                local += value
        total += local
    return "lu checksum = %.4f\n" % total


def stream_kernel(kernel, nthreads=32, n=1024):
    if kernel not in STREAM_KERNELS:
        raise KeyError("unknown stream kernel %r" % (kernel,))
    total = 0.0
    for lo, hi in _chunks(n, nthreads):
        local = 0.0
        for j in range(lo, hi):
            a, b, c = 1.0 + j, 2.0, 0.5 * j
            if kernel == "copy":
                c = a
            elif kernel == "scale":
                b = 3.0 * c
            elif kernel == "add":
                c = a + b
            else:
                a = b + 3.0 * c
            local += a + b + c
        total += local
    return "%s checksum = %.1f\n" % (kernel, total)


def example_4_1():
    """Listing 4.1: thread t adds its id and ``*ptr`` (1) to sum[t]."""
    return "".join("Sum Array: %d\n" % (tid + 1) for tid in range(3))


KERNELS = {
    "pi": pi_approximation,
    "sum35": sum35,
    "primes": count_primes,
    "stream": stream,
    "dot": dot_product,
    "lu": lu_decomposition,
}


def expected_stdout(name, nthreads, **sizes):
    """The stdout the pthreads program ``name`` must print."""
    if name == "example_4_1":
        return example_4_1()
    if name in STREAM_KERNELS:
        return stream_kernel(name, nthreads, **sizes)
    return KERNELS[name](nthreads, **sizes)


def expected_rcce_stdout(name, nthreads, **sizes):
    """The stdout of the translated program on ``nthreads`` UEs, in
    core order.  Code after the joins runs on every UE, so each UE
    prints the whole answer; Listing 4.1 prints inside its join loop,
    which becomes one print of ``sum[myID]`` per UE."""
    if name == "example_4_1":
        return example_4_1()
    return expected_stdout(name, nthreads, **sizes) * nthreads
