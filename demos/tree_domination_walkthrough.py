#!/usr/bin/env python3
"""Minimum domination on trees with a matching packing certificate.

On a tree the greedy cover of the neighborhood hypergraph produces a
dominating set D and a 2-packing P with |D| = |P|.  Since no 2-packing
can be larger than any dominating set, both are optimal, and the pair is
its own proof.  The same works for total domination via open
neighborhoods.

Run: python3 demos/tree_domination_walkthrough.py
"""

import time

from hypercover import exact, format_graph, random_tree, tree_domination


def show(cert):
    print(f"  dominating set : {tuple(v + 1 for v in cert.dominating)}  (1-based)")
    print(f"  2-packing      : {tuple(v + 1 for v in cert.packing)}")
    print(f"  sizes equal    : {cert.equal}")
    print(f"  checks         : {cert.checks}")


def main():
    print("A random 12-vertex tree (seed 11):")
    t = random_tree(12, seed=11)
    print(format_graph(t), end="")

    print()
    print("Closed kind (ordinary domination):")
    closed = tree_domination(t, "closed")
    show(closed)
    gamma = exact(t, "min-dominating").value
    alpha2 = exact(t, "max-2-packing").value
    print(f"  brute force    : minimum dominating = {gamma}, maximum 2-packing = {alpha2}")
    assert len(closed.dominating) == gamma == alpha2

    print()
    print("Open kind (total domination):")
    open_cert = tree_domination(t, "open")
    show(open_cert)
    gamma_t = exact(t, "min-total-dominating").value
    print(f"  brute force    : minimum total dominating = {gamma_t}")
    assert len(open_cert.dominating) == gamma_t

    print()
    print("The solver scales to much larger trees than the oracle:")
    big = random_tree(50_000, seed=1)
    start = time.perf_counter()
    cert = tree_domination(big, "closed")
    elapsed = time.perf_counter() - start
    print(f"  n = {big.n}: |D| = |P| = {len(cert.dominating)} in {elapsed:.2f}s")


if __name__ == "__main__":
    main()
