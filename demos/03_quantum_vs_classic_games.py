"""The two dating-game protocols and where each player wins.

Game 1 gives both players one attempt per turn; game 2 hands the classic
player N/2 attempts against the quantum player's single shot.  Prints
measured and analytic D/T for a few acceptance-probability profiles, then
the zero contour of the game-2 surface.
"""

from qdating import (
    GameConfig,
    GameVariant,
    SweepSpec,
    WomanProfile,
    expected_dt,
    run_match,
    run_sweep,
    sign_boundary,
)

TRIALS = 100_000

print("game 1 (one attempt each, N=8): d_over_t = (Q wins - C wins) / T")
print(f"{'P_c':>5} {'P_q':>5} {'measured':>10} {'analytic':>10}")
for p_c, p_q in [(0.5, 0.5), (0.9, 0.3), (1.0, 0.1), (1.0, 0.0)]:
    cfg = GameConfig(3, GameVariant.GAME1, trials=TRIALS, seed=1)
    woman = WomanProfile(0, p_c, p_q)
    stats = run_match(cfg, woman)
    print(f"{p_c:>5} {p_q:>5} {stats.d_over_t:>10.4f} "
          f"{expected_dt(cfg, woman):>10.4f}")

print("\ngame 2 (classic gets 4 attempts, N=8):")
print(f"{'P_c':>5} {'P_q':>5} {'measured':>10} {'analytic':>10}")
for p_c, p_q in [(0.5, 0.5), (0.6, 0.2), (1.0, 0.3)]:
    cfg = GameConfig(3, GameVariant.GAME2, trials=TRIALS, seed=2)
    woman = WomanProfile(0, p_c, p_q)
    stats = run_match(cfg, woman)
    print(f"{p_c:>5} {p_q:>5} {stats.d_over_t:>10.4f} "
          f"{expected_dt(cfg, woman):>10.4f}")

print("\ngame 2 break-even contour (classic starts winning above it):")
# A sweep plays one GameConfig at every (P_c, P_q) cell of the grid.
table = run_sweep(SweepSpec(GameConfig(3, GameVariant.GAME2, trials=10), grid_points=21))
for p_q, p_c_zero in sign_boundary(table):
    if 0.1 <= p_q <= 0.5:
        print(f"  P_q = {p_q:.2f}  ->  P_c = {p_c_zero:.3f} "
              f"(ratio {p_c_zero / p_q:.2f})")
