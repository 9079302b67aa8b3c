"""Seeded generator of race-free Pthreads programs with a known answer.

Each program is integer-only C built from constructs the Appendix-C
corpus already uses (cyclic ``for`` loops over ``(int)tid``, ``if``,
``%``, global arrays, ``&array[k]`` pointers, ``pthread_exit(NULL)``,
``printf("%d")``) plus mutex-protected accumulators initialised with
``pthread_mutex_init`` (the pthread interpreter rejects
``PTHREAD_MUTEX_INITIALIZER``).

Race freedom holds by construction:

* read-only shared arrays are written only by ``main`` before the
  threads start (and, after translation, every UE writes the same
  values, so the copies agree);
* each per-thread output array belongs to one thread function and is
  indexed by the thread id, so no two threads write one element;
* accumulators are zero-initialised statically and only updated while
  their mutex is held.

Every thread function is launched once per thread id, so the pthreads
program runs ``funcs x nthreads`` threads and the translated program
calls each function once per UE.  The expected output is computed here
from the same description the C text is rendered from, never by
running the program.
"""

def _split(total, parts, rng):
    """``total`` items over ``parts`` non-empty bins (total >= parts)."""
    cuts = sorted(rng.sample(range(1, total), parts - 1)) if parts > 1 \
        else []
    bounds = [0] + cuts + [total]
    return [bounds[k + 1] - bounds[k] for k in range(parts)]


def generate(rng, nthreads=4, globals_=32, funcs=2, shared_fraction=0.5,
             aliases=2, mutexes=2):
    """Build one program; returns ``(source, expected_stdout)``.

    ``rng`` is a :class:`random.Random` that draws the contents.
    ``globals_`` counts every file-scope variable, mutexes included.
    ``shared_fraction`` of them are touched by thread functions:
    read-only arrays, per-thread output arrays, accumulators with their
    mutexes, and global pointer aliases into the read-only arrays.  The
    rest are private to ``main``.
    """
    if funcs < 1 or mutexes < 1 or aliases < 0:
        raise ValueError("need funcs >= 1, mutexes >= 1, aliases >= 0")
    shared_total = max(int(round(shared_fraction * globals_)),
                       2 * mutexes + aliases + funcs + 1)
    arrays = shared_total - 2 * mutexes - aliases
    outs = max(funcs, arrays // 3)
    readonly = arrays - outs
    if readonly < 1:
        raise ValueError("too few globals for the requested shape")
    private = globals_ - shared_total
    if private < 0:
        raise ValueError("globals_=%d cannot hold %d shared variables"
                         % (globals_, shared_total))
    private_arrays = private // 2
    private_scalars = private - private_arrays

    ro = []                                   # (name, length, a, b, m)
    for k in range(readonly):
        ro.append(("ro%d" % k, rng.randint(4, 24), rng.randint(1, 9),
                   rng.randint(0, 20), rng.randint(7, 97)))
    ro_values = {name: [(i * a + b) % m for i in range(length)]
                 for name, length, a, b, m in ro}
    alias = []                                # (name, target, offset)
    for k in range(aliases):
        target, length = rng.choice(ro)[:2]
        alias.append(("alias%d" % k, target, rng.randrange(length)))
    alias_of = {name: (target, offset) for name, target, offset in alias}
    out_names = ["out%d" % k for k in range(outs)]
    owned = []
    cursor = 0
    for count in _split(outs, funcs, rng):
        owned.append(out_names[cursor:cursor + count])
        cursor += count

    def length_of(name):
        if name in ro_values:
            return len(ro_values[name])
        target, offset = alias_of[name]
        return len(ro_values[target]) - offset

    def value_of(name, i):
        if name in ro_values:
            return ro_values[name][i]
        target, offset = alias_of[name]
        return ro_values[target][offset + i]

    workers = []
    for f in range(funcs):
        ops = []
        for _ in range(3):
            kind = rng.choice(("sum", "cond", "alias", "ptr")
                              if alias else ("sum", "cond", "ptr"))
            if kind == "alias":
                ops.append(("alias", rng.choice(alias)[0],
                            rng.randint(1, 5)))
            elif kind == "ptr":
                target, length = rng.choice(ro)[:2]
                ops.append(("ptr", target, rng.randrange(length),
                            rng.randint(0, 9)))
            elif kind == "cond":
                ops.append(("cond", rng.choice(ro)[0], rng.randint(2, 5),
                            rng.randint(1, 9)))
            else:
                ops.append(("sum", rng.choice(ro)[0], rng.randint(1, 7),
                            rng.randint(0, 9)))
        writes = [(name, rng.randint(1, 7), rng.randint(0, 9))
                  for name in owned[f]]
        accs = rng.sample(range(mutexes), rng.randint(1, mutexes))
        workers.append((ops, writes, [(m, rng.randint(3, 17))
                                      for m in sorted(accs)]))

    # -- the expected answer, evaluated from the description -------------
    out_values = {name: [0] * nthreads for name in out_names}
    acc_values = [0] * mutexes
    for ops, writes, accs in workers:
        for tid in range(nthreads):
            local = 0
            for op in ops:
                if op[0] == "sum":
                    _, name, coef, add = op
                    for i in range(tid, length_of(name), nthreads):
                        local += value_of(name, i) * coef + add
                elif op[0] == "cond":
                    _, name, mod, bonus = op
                    for i in range(tid, length_of(name), nthreads):
                        value = value_of(name, i)
                        local += bonus if value % mod == 0 else value
                elif op[0] == "alias":
                    _, name, coef = op
                    for i in range(tid, length_of(name), nthreads):
                        local += value_of(name, i) * coef
                else:
                    _, target, offset, add = op
                    length = len(ro_values[target]) - offset
                    for i in range(tid, length, nthreads):
                        local += ro_values[target][offset + i] + add
            local %= 10007
            for name, coef, add in writes:
                out_values[name][tid] = local * coef + add
            for m, mod in accs:
                acc_values[m] += local % mod + 1
    private_specs = [("pv%d" % k, rng.randint(1, 99))
                     for k in range(private_scalars)]
    private_array_specs = [("pa%d" % k, rng.randint(2, 12),
                            rng.randint(1, 9), rng.randint(0, 9))
                           for k in range(private_arrays)]
    checksum = 0
    for k, name in enumerate(out_names):
        checksum += sum(out_values[name]) * (k % 5 + 1)
    for m in range(mutexes):
        checksum += acc_values[m] * (m % 3 + 1)
    for name, value in private_specs:
        checksum += value
    for name, length, a, b in private_array_specs:
        checksum += sum(i * a + b for i in range(length))

    # -- the C text ------------------------------------------------------
    lines = ["#include <stdio.h>", "#include <pthread.h>", "",
             "#define NTHREADS %d" % nthreads, ""]
    for name, length, _, _, _ in ro:
        lines.append("int %s[%d];" % (name, length))
    for name in out_names:
        lines.append("int %s[%d];" % (name, nthreads))
    for m in range(mutexes):
        lines.append("int acc%d;" % m)
        lines.append("pthread_mutex_t lock%d;" % m)
    for name, _, _ in alias:
        lines.append("int *%s;" % name)
    for name, _ in private_specs:
        lines.append("int %s;" % name)
    for name, length, _, _ in private_array_specs:
        lines.append("int %s[%d];" % (name, length))
    lines.append("")
    for f, (ops, writes, accs) in enumerate(workers):
        body = ["void *worker%d(void *tid) {" % f,
                "    int id = (int)tid;", "    int i;",
                "    int local = 0;"]
        pointers = [op for op in ops if op[0] == "ptr"]
        for k, (_, target, offset, _) in enumerate(pointers):
            body.append("    int *p%d = &%s[%d];" % (k, target, offset))
        loop = "    for (i = id; i < %d; i += NTHREADS) {"
        pointer_index = 0
        for op in ops:
            if op[0] == "sum":
                _, name, coef, add = op
                body += [loop % length_of(name),
                         "        local += %s[i] * %d + %d;"
                         % (name, coef, add), "    }"]
            elif op[0] == "cond":
                _, name, mod, bonus = op
                body += [loop % length_of(name),
                         "        if (%s[i] %% %d == 0) {" % (name, mod),
                         "            local += %d;" % bonus,
                         "        } else {",
                         "            local += %s[i];" % name,
                         "        }", "    }"]
            elif op[0] == "alias":
                _, name, coef = op
                body += [loop % length_of(name),
                         "        local += %s[i] * %d;" % (name, coef),
                         "    }"]
            else:
                _, target, offset, add = op
                body += [loop % (len(ro_values[target]) - offset),
                         "        local += p%d[i] + %d;"
                         % (pointer_index, add), "    }"]
                pointer_index += 1
        body.append("    local = local % 10007;")
        for name, coef, add in writes:
            body.append("    %s[id] = local * %d + %d;" % (name, coef, add))
        for m, mod in accs:
            body += ["    pthread_mutex_lock(&lock%d);" % m,
                     "    acc%d += local %% %d + 1;" % (m, mod),
                     "    pthread_mutex_unlock(&lock%d);" % m]
        body += ["    pthread_exit(NULL);", "}", ""]
        lines += body
    main = ["int main() {"]
    for f in range(funcs):
        main.append("    pthread_t threads%d[NTHREADS];" % f)
    main += ["    int t;", "    int i;", "    int checksum = 0;"]
    for m in range(mutexes):
        main.append("    pthread_mutex_init(&lock%d, NULL);" % m)
    for name, length, a, b, m in ro:
        main += ["    for (i = 0; i < %d; i++) {" % length,
                 "        %s[i] = (i * %d + %d) %% %d;" % (name, a, b, m),
                 "    }"]
    for name, target, offset in alias:
        main.append("    %s = &%s[%d];" % (name, target, offset))
    for name, value in private_specs:
        main.append("    %s = %d;" % (name, value))
    for name, length, a, b in private_array_specs:
        main += ["    for (i = 0; i < %d; i++) {" % length,
                 "        %s[i] = i * %d + %d;" % (name, a, b), "    }"]
    for f in range(funcs):
        main += ["    for (t = 0; t < NTHREADS; t++) {",
                 "        pthread_create(&threads%d[t], NULL, worker%d, "
                 "(void *)t);" % (f, f), "    }"]
    for f in range(funcs):
        main += ["    for (t = 0; t < NTHREADS; t++) {",
                 "        pthread_join(threads%d[t], NULL);" % f, "    }"]
    for k, name in enumerate(out_names):
        main += ["    for (t = 0; t < NTHREADS; t++) {",
                 "        checksum += %s[t] * %d;" % (name, k % 5 + 1),
                 "    }"]
    for m in range(mutexes):
        main.append("    checksum += acc%d * %d;" % (m, m % 3 + 1))
    for name, _ in private_specs:
        main.append("    checksum += %s;" % name)
    for name, length, _, _ in private_array_specs:
        main += ["    for (i = 0; i < %d; i++) {" % length,
                 "        checksum += %s[i];" % name, "    }"]
    main += ['    printf("checksum = %d\\n", checksum);', "    return 0;",
             "}"]
    lines += main
    return "\n".join(lines) + "\n", "checksum = %d\n" % checksum
