"""Drive series kernels by their protocol, for the tests.

A kernel is primed by ``next()`` and then sent checkpoints, the float index
to sum up to; it yields ``(n, s, comp, sum |a_n|, a_n, rest)`` there (see
``betalab.series``).
"""

from __future__ import annotations


def states(kernel, indices):
    """Prime ``kernel`` and yield its state at each of the ``indices`` in turn."""
    next(kernel)
    for n in indices:
        yield kernel.send(float(n))


def requested(kernel, accel):
    """Feed ``accel`` the samples it asks ``kernel`` for, as the engine does;
    return ``(n, s + comp, a_n, rest)`` of each."""
    samples = []
    next(kernel)
    n = 1
    while n:
        _, s, comp, _, term, rest = kernel.send(float(n))
        samples.append((n, s + comp, term, rest))
        n = accel.sample(n, s + comp, term, rest)[0]
    return samples


def pair_kernel(pairs):
    """A d2 kernel over the ``(a_n, a_{n+1} - a_n)`` pairs of ``pairs``: it
    adds every term, zeros included, as the trigamma kernel does."""
    n = s = comp = abs_sum = term = rest = 0.0
    target = yield
    while True:
        while n < target:
            term, rest = next(pairs)
            n += 1.0
            t = s + term
            size = abs(term)
            abs_sum += size
            if abs(s) >= size:
                comp += (s - t) + term
            else:
                comp += (term - t) + s
            s = t
        target = yield n, s, comp, abs_sum, term, rest


def pairs(kernel):
    """The ``(a_n, rest)`` pairs of ``kernel``, one checkpoint per term."""
    next(kernel)
    n = 0.0
    while True:
        n += 1.0
        yield kernel.send(n)[4:]
