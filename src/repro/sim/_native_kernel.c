/* Native simulation kernel: one sequential walk over precomputed index
 * streams.
 *
 * Every index-expressible predictor's table indices are a pure function
 * of the trace, so repro.sim.vectorized precomputes them in numpy; what
 * remains is the counter walk itself, whose reads feed later
 * predictions.  This file walks the events strictly in trace order,
 * exactly as repro.sim.engine.simulate does, so it is exact for every
 * update policy by construction — including PARTIAL and LAZY, where
 * each bank's training reads the overall majority vote and the banks
 * form one coupled state machine.
 *
 * Entry points (pinned to scalar oracles by name in
 * tests/sim/test_native.py; the R006 lint rule keeps that true):
 *
 *   repro_walk        1, 3 or 5 voted banks of saturating counters
 *                     under TOTAL / PARTIAL / LAZY update (a plain
 *                     table is one bank under TOTAL);
 *   repro_walk_agree  the agree predictor: a gshare-indexed PHT of
 *                     "agrees with bias" counters plus a biasing-bit
 *                     table that latches on a slot's first execution.
 *
 * Counter conventions (both walks): predict taken when
 * `value >= threshold`; training saturates in [0, max_value] toward the
 * trained direction.  Events below `warmup` train but are not scored.
 */

#include <stdint.h>

#define REPRO_POLICY_TOTAL 0
#define REPRO_POLICY_PARTIAL 1
#define REPRO_POLICY_LAZY 2

#define REPRO_MAX_BANKS 5

static inline int64_t repro_step(int64_t value, int32_t up, int64_t max_value)
{
    if (up)
        return value < max_value ? value + 1 : value;
    return value > 0 ? value - 1 : value;
}

/* The walk body, inlined with constant `banks` and `policy` so each of
 * the dispatched specialisations unrolls its bank loops. */
static inline int64_t walk(const uint32_t *indices, const uint8_t *outcomes,
                           int64_t n, const int32_t banks,
                           const int32_t policy, int64_t threshold,
                           int64_t max_value, int64_t *values,
                           int64_t entries, int64_t warmup)
{
    int64_t misses = 0;
    int64_t i;
    int32_t b;

    for (i = 0; i < n; i++) {
        int64_t *slot[REPRO_MAX_BANKS];
        int64_t value[REPRO_MAX_BANKS];
        int32_t own[REPRO_MAX_BANKS];
        int32_t taken = outcomes[i];
        int32_t votes = 0;
        int32_t wrong;

        for (b = 0; b < banks; b++) {
            slot[b] = values + b * entries + indices[b * n + i];
            value[b] = *slot[b];
            own[b] = value[b] >= threshold;
            votes += own[b];
        }
        wrong = (2 * votes > banks) != taken;
        misses += wrong & (i >= warmup);
        for (b = 0; b < banks; b++) {
            /* TOTAL trains every bank; PARTIAL all banks on an overall
             * miss, else only the banks that predicted the outcome;
             * LAZY all banks on an overall miss only. */
            if (policy == REPRO_POLICY_TOTAL || wrong
                || (policy == REPRO_POLICY_PARTIAL && own[b] == taken))
                *slot[b] = repro_step(value[b], taken, max_value);
        }
    }
    return misses;
}

/* Walk `n` events through `banks` majority-voted tables; return the
 * misses at positions >= warmup, or -1 for an unsupported bank count or
 * policy.
 *
 *   indices    bank-major: indices[b * n + i] is bank b's entry for
 *              event i
 *   outcomes   n bytes, 1 = taken
 *   banks      1, 3 or 5
 *   policy     REPRO_POLICY_TOTAL / _PARTIAL / _LAZY
 *   values     bank-major counters, `entries` per bank; mutated to the
 *              final state (bit-identical to the generic engine's)
 */
int64_t repro_walk(const uint32_t *indices, const uint8_t *outcomes,
                   int64_t n, int32_t banks, int32_t policy,
                   int64_t threshold, int64_t max_value, int64_t *values,
                   int64_t entries, int64_t warmup)
{
#define REPRO_WALK(B, P)                                                  \
    walk(indices, outcomes, n, B, P, threshold, max_value, values,        \
         entries, warmup)
#define REPRO_WALK_POLICIES(B)                                            \
    switch (policy) {                                                     \
    case REPRO_POLICY_TOTAL:                                              \
        return REPRO_WALK(B, REPRO_POLICY_TOTAL);                         \
    case REPRO_POLICY_PARTIAL:                                            \
        return REPRO_WALK(B, REPRO_POLICY_PARTIAL);                       \
    case REPRO_POLICY_LAZY:                                               \
        return REPRO_WALK(B, REPRO_POLICY_LAZY);                          \
    }                                                                     \
    return -1

    switch (banks) {
    case 1:
        REPRO_WALK_POLICIES(1);
    case 3:
        REPRO_WALK_POLICIES(3);
    case 5:
        REPRO_WALK_POLICIES(5);
    }
    return -1;
#undef REPRO_WALK_POLICIES
#undef REPRO_WALK
}

/* Walk `n` events through an agree predictor; return the misses at
 * positions >= warmup.
 *
 *   indices   n PHT entries (gshare index per event)
 *   slots     n biasing-bit slots
 *   values    PHT counters, mutated to the final state
 *   bias      biasing bits: -1 = unlatched, else the latched outcome;
 *             mutated as slots latch
 *
 * The prediction uses the slot's bias as it stands (default taken when
 * unlatched); the slot then latches to the outcome on its first
 * execution, and the PHT trains toward "the outcome agreed with the
 * bias" — the order AgreePredictor.predict_and_update uses.
 */
int64_t repro_walk_agree(const uint32_t *indices, const uint32_t *slots,
                         const uint8_t *outcomes, int64_t n,
                         int64_t threshold, int64_t max_value,
                         int64_t *values, int8_t *bias, int64_t warmup)
{
    int64_t misses = 0;
    int64_t i;

    for (i = 0; i < n; i++) {
        int64_t *slot = values + indices[i];
        int8_t *latch = bias + slots[i];
        int64_t value = *slot;
        int32_t taken = outcomes[i];
        int32_t predicted_bias = *latch < 0 ? 1 : *latch;
        int32_t prediction =
            value >= threshold ? predicted_bias : !predicted_bias;

        misses += (prediction != taken) & (i >= warmup);
        if (*latch < 0)
            *latch = (int8_t)taken;
        *slot = repro_step(value, taken == *latch, max_value);
    }
    return misses;
}
