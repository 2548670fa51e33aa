#!/usr/bin/env python3
"""End-to-end tour of the statistics on the 35-bit running example.

Prints the adjusted report under every coder, the m=5 deficiency verdict,
and the conditional/mutual numbers for the paired fixture.
"""

import kadjust as kj

WORD = "01010001001000001010000100000100001"


def main() -> None:
    word = kj.BitWord.from01(WORD)
    print(f"word    {WORD}")
    print(f"n = {word.n}, w = {word.weight}")
    print()
    print(f"{'coder':<12} {'K_eff':>9} {'KA':>9} {'R':>8} {'deficiency':>11}")
    for name in kj.CODER_NAMES:
        rep = kj.adjusted(word, kj.CoderId(name))
        print(
            f"{name:<12} {rep.k_eff:>9.3f} {rep.KA:>9.3f} {rep.R:>8.4f} "
            f"{rep.deficiency:>11.3f}"
        )
    print()
    verdict = kj.test_word(word, kj.TestConfig(m=5, coder=kj.CoderId("shell")))
    print(
        f"deficiency test (m=5, shell): {verdict.decision}, "
        f"R = {verdict.R:.4f}, threshold c(5) = {verdict.threshold:.4f}"
    )

    # paired fixture: counts (19, 7, 6, 3) over n = 35
    xbits, ybits = [], []
    for (a, b), c in (((0, 0), 19), ((0, 1), 7), ((1, 0), 6), ((1, 1), 3)):
        xbits += [a] * c
        ybits += [b] * c
    x, y = kj.BitWord(xbits), kj.BitWord(ybits)
    cond = kj.adjusted_conditional(x, y, kj.CoderId("shell"))
    mut = kj.adjusted_mutual(x, y, kj.CoderId("shell"))
    print()
    print(f"H(X|Y) = {cond.H_cond:.4f} bits/symbol, baseline = {cond.baseline:.3f} bits")
    print(f"conditional R = {cond.R_cond:.4f}")
    print(f"I_emp = {mut.I_emp:.5f} bits/symbol, I_eff = {mut.I_eff:.3f} bits")


if __name__ == "__main__":
    main()
