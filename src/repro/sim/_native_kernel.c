/* Native kernel: one sequential walk over a trace's code stream, and the
 * synthetic program builder and runner that generate traces.
 *
 * Every index-expressible predictor's table indices are a pure function
 * of the trace and the predictor's index geometry (scheme, index width,
 * history length and the history register's contents before the trace),
 * so the walk computes them itself, a block of events at a time: it
 * gathers the block's conditional events with the history register each
 * one sees, evaluates the scheme's index functions over the block in
 * branch-free loops, and then walks the block.  No whole-trace index
 * array exists.  The walk visits the events strictly in trace order,
 * exactly as repro.sim.engine.simulate does, so it is exact for every
 * update policy by construction — including PARTIAL and LAZY, where
 * each bank's training reads the overall majority vote and the banks
 * form one coupled state machine.
 *
 * Entry points (pinned to oracles by name in tests/sim/test_native.py,
 * tests/traces/synthetic/test_cfg.py and test_kernel.py;
 * tests/test_engine_parity.py keeps that true):
 *
 *   repro_walk        1, 3 or 5 voted banks of saturating counters
 *                     under TOTAL / PARTIAL / LAZY update (a plain
 *                     table is one bank under TOTAL);
 *   repro_walk_agree  the agree predictor: a gshare-indexed PHT of
 *                     "agrees with bias" counters plus a biasing-bit
 *                     table that latches on a slot's first execution;
 *   repro_walk_lru    an N-entry fully-associative table tagged with
 *                     the (address, history) pair, replaced LRU;
 *   repro_pair_pass   the (address, history) pair stream's ids and
 *                     last-use distances, and tagged direct-mapped
 *                     tables' misses, for the 3Cs split and the model;
 *   repro_run_program the synthetic trace generator's program runner;
 *   repro_random_block blocks of random.Random.random() for its
 *                     scheduler;
 *   repro_build_program its program builder (the last three at the end
 *                     of this file).
 *
 * Trace conventions (every walk): the trace is n `codes`, event i being
 * row codes[i] of the event table `pcs`, `takens`, `conditionals`
 * (repro.traces.trace.Trace: a few thousand rows, so the table stays in
 * cache while the walk streams 4 bytes per event).  The caller checks
 * every code against the row count before the call
 * (repro.sim.vectorized._check_events).  Every event shifts its outcome
 * into the global-history register (most recent in the least-significant
 * bit); only conditional events are predicted and trained.  `warmup`
 * counts conditional events: the first `warmup` of them train but are
 * not scored.
 *
 * Counter conventions (every walk): a counter is one byte of the
 * predictor's own table (repro.core.counters.CounterArray), walked in
 * place, or of an LRU slot; predict taken when `value >= threshold`;
 * training saturates in [0, max_value] toward the trained direction,
 * max_value <= 255.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define REPRO_POLICY_TOTAL 0
#define REPRO_POLICY_PARTIAL 1
#define REPRO_POLICY_LAZY 2

#define REPRO_SCHEME_BIMODAL 0
#define REPRO_SCHEME_GSHARE 1
#define REPRO_SCHEME_GSELECT 2
#define REPRO_SCHEME_SKEW 3
#define REPRO_SCHEME_EGSKEW 4

#define REPRO_MAX_BANKS 5
#define REPRO_MAX_INDEX_BITS 32
#define REPRO_MAX_HISTORY_BITS 63

/* Events per block: the block's words, history registers and indices
 * live on the stack (~72 KB at five banks). */
#define REPRO_BLOCK 2048

static inline uint64_t repro_mask(int32_t bits)
{
    return bits ? (UINT64_C(1) << bits) - 1 : 0;
}

static inline int64_t repro_step(int64_t value, int32_t up, int64_t max_value)
{
    if (up)
        return value < max_value ? value + 1 : value;
    return value > 0 ? value - 1 : value;
}

/* Gather the conditional events of [start, stop), each read through its
 * code from the event table: their word addresses (pc >> 2) and the
 * history register *after* each one shifted its outcome in — so bit 0
 * is the event's outcome and the bits above it are the register the
 * event was predicted with.  The register is kept unmasked (one add per
 * event on the serial chain); its low bits are exact, and every reader
 * masks.  Returns the conditional count. */
static int64_t repro_gather(const uint32_t *codes, const uint64_t *pcs,
                            const uint8_t *takens,
                            const uint8_t *conditionals, int64_t start,
                            int64_t stop, uint64_t *history,
                            uint64_t *words, uint64_t *after)
{
    uint64_t h = *history;
    int64_t m = 0;
    int64_t i;

    for (i = start; i < stop; i++) {
        uint32_t row = codes[i];

        h = h * 2 + (takens[row] != 0);
        /* Written for every event, kept only for conditional ones. */
        words[m] = pcs[row] >> 2;
        after[m] = h;
        m += conditionals[row] != 0;
    }
    *history = h;
    return m;
}

/* The register conditional event k was predicted with. */
static inline uint64_t repro_history(const uint64_t *after, int64_t k,
                                     uint64_t history_mask)
{
    return (after[k] >> 1) & history_mask;
}

/* gshare's index: the address XOR the history, folded into `bits` bits
 * when the history is longer (repro.core.index.gshare_index). */
static void repro_gshare(const uint64_t *words, const uint64_t *after,
                         int64_t m, int32_t bits, int32_t history_bits,
                         uint32_t *out)
{
    uint64_t mask = repro_mask(bits);
    uint64_t history_mask = repro_mask(history_bits);
    int64_t k;

    if (history_bits == 0 || bits == 0) {
        for (k = 0; k < m; k++)
            out[k] = (uint32_t)(words[k] & mask);
    } else if (history_bits <= bits) {
        int32_t shift = bits - history_bits;

        for (k = 0; k < m; k++)
            out[k] = (uint32_t)((words[k]
                                 ^ (repro_history(after, k, history_mask)
                                    << shift)) & mask);
    } else {
        int32_t chunks = (history_bits + bits - 1) / bits;
        int32_t c;

        for (k = 0; k < m; k++) {
            uint64_t history = repro_history(after, k, history_mask);
            uint64_t folded = words[k] & mask;

            for (c = 0; c < chunks; c++)
                folded ^= (history >> (c * bits)) & mask;
            out[k] = (uint32_t)folded;
        }
    }
}

/* gselect's index: low address bits above the history bits. */
static void repro_gselect(const uint64_t *words, const uint64_t *after,
                          int64_t m, int32_t bits, int32_t history_bits,
                          uint32_t *out)
{
    uint64_t mask = repro_mask(bits);
    uint64_t history_mask = repro_mask(history_bits);
    int64_t k;

    if (history_bits == 0) {
        for (k = 0; k < m; k++)
            out[k] = (uint32_t)(words[k] & mask);
    } else if (history_bits >= bits) {
        for (k = 0; k < m; k++)
            out[k] = (uint32_t)(repro_history(after, k, mask));
    } else {
        uint64_t address_mask = repro_mask(bits - history_bits);

        for (k = 0; k < m; k++)
            out[k] = (uint32_t)(((words[k] & address_mask) << history_bits)
                                | repro_history(after, k, history_mask));
    }
}

/* The paper's shuffle H and its inverse on n-bit values, n >= 2. */
static inline uint32_t repro_shuffle(uint32_t y, int32_t n)
{
    return (y >> 1) | ((((y >> (n - 1)) ^ y) & 1u) << (n - 1));
}

static inline uint32_t repro_unshuffle(uint32_t z, int32_t n, uint32_t mask)
{
    return ((z << 1) & mask) | (((z >> (n - 1)) ^ (z >> (n - 2))) & 1u);
}

/* The skewing family f0..f(count-1) (repro.core.skew) over the n-bit
 * halves v1, v2 of the information vector (pc >> 2) << h | history.
 * `count` is a constant at each call, so the unused functions drop. */
static inline void repro_skew(const uint64_t *words, const uint64_t *after,
                              int64_t m, int32_t n, int32_t history_bits,
                              const int32_t count, uint32_t *out)
{
    uint64_t mask = repro_mask(n);
    uint64_t history_mask = repro_mask(history_bits);
    uint32_t narrow = (uint32_t)mask;
    int64_t k;

    if (n < 2) {
        /* H and H^-1 are the identity on one bit (and on none). */
        for (k = 0; k < m; k++) {
            uint64_t vector = (words[k] << history_bits)
                             | repro_history(after, k, history_mask);
            uint32_t v1 = (uint32_t)(vector & mask);
            uint32_t v2 = (uint32_t)((vector >> n) & mask);

            out[k] = v1;
            if (count > 1) {
                out[REPRO_BLOCK + k] = v2;
                out[2 * REPRO_BLOCK + k] = v1;
            }
            if (count > 3) {
                out[3 * REPRO_BLOCK + k] = v2;
                out[4 * REPRO_BLOCK + k] = v1;
            }
        }
        return;
    }
    for (k = 0; k < m; k++) {
        uint64_t vector = (words[k] << history_bits)
                             | repro_history(after, k, history_mask);
        uint32_t v1 = (uint32_t)(vector & mask);
        uint32_t v2 = (uint32_t)((vector >> n) & mask);
        uint32_t h1, g2, g1, h2;

        if (count == 1) {
            out[k] = v1;
            continue;
        }
        h1 = repro_shuffle(v1, n);
        g2 = repro_unshuffle(v2, n, narrow);
        g1 = repro_unshuffle(v1, n, narrow);
        h2 = repro_shuffle(v2, n);
        out[k] = h1 ^ g2 ^ v2;
        out[REPRO_BLOCK + k] = h1 ^ g2 ^ v1;
        out[2 * REPRO_BLOCK + k] = g1 ^ h2 ^ v2;
        if (count > 3) {
            out[3 * REPRO_BLOCK + k] = g1 ^ h2 ^ v1;
            out[4 * REPRO_BLOCK + k] = repro_shuffle(h1, n)
                                       ^ repro_unshuffle(g2, n, narrow) ^ v2;
        }
    }
}

/* e-gskew's bank 0: address truncation, or the ablation's short
 * history hash when `bank0_bits` > 0. */
static void repro_egskew_bank0(const uint64_t *words, const uint64_t *after,
                               int64_t m, int32_t n, int32_t bank0_bits,
                               uint32_t *out)
{
    uint64_t mask = repro_mask(n);
    uint64_t short_mask = repro_mask(bank0_bits);
    int32_t shift = n - bank0_bits;
    int64_t k;

    if (bank0_bits == 0) {
        for (k = 0; k < m; k++)
            out[k] = (uint32_t)(words[k] & mask);
    } else if (shift >= 0) {
        for (k = 0; k < m; k++)
            out[k] = (uint32_t)((words[k] & mask)
                                ^ (repro_history(after, k, short_mask)
                                   << shift));
    } else {
        for (k = 0; k < m; k++)
            out[k] = (uint32_t)((words[k]
                                 ^ repro_history(after, k, short_mask))
                                & mask);
    }
}

/* Every bank's index for the block's m conditional events, bank-major
 * with a stride of REPRO_BLOCK.  One copy serves every walk
 * specialisation; the skewing family is specialised per bank count. */
static void repro_indices(const uint64_t *words, const uint64_t *after,
                          int64_t m, int32_t scheme, int32_t banks,
                          int32_t bits, int32_t history_bits,
                          int32_t bank0_bits, uint32_t *out)
{
    uint64_t mask = repro_mask(bits);
    int64_t k;

    switch (scheme) {
    case REPRO_SCHEME_BIMODAL:
        for (k = 0; k < m; k++)
            out[k] = (uint32_t)(words[k] & mask);
        break;
    case REPRO_SCHEME_GSHARE:
        repro_gshare(words, after, m, bits, history_bits, out);
        break;
    case REPRO_SCHEME_GSELECT:
        repro_gselect(words, after, m, bits, history_bits, out);
        break;
    case REPRO_SCHEME_SKEW:
        if (banks == 1)
            repro_skew(words, after, m, bits, history_bits, 1, out);
        else if (banks == 3)
            repro_skew(words, after, m, bits, history_bits, 3, out);
        else
            repro_skew(words, after, m, bits, history_bits, 5, out);
        break;
    case REPRO_SCHEME_EGSKEW:
        repro_skew(words, after, m, bits, history_bits, 3, out);
        repro_egskew_bank0(words, after, m, bits, bank0_bits, out);
        break;
    }
}

/* Walk one block's m events through the voted banks; `warmup` is
 * relative to the block (negative once the warmup has passed). */
static inline int64_t repro_walk_block(const uint32_t *indices,
                                       const uint64_t *after, int64_t m,
                                       const int32_t banks,
                                       const int32_t policy,
                                       int64_t threshold, int64_t max_value,
                                       uint8_t *const *tables,
                                       int64_t warmup)
{
    int64_t misses = 0;
    int64_t i;
    int32_t b;

    for (i = 0; i < m; i++) {
        uint8_t *slot[REPRO_MAX_BANKS];
        int64_t value[REPRO_MAX_BANKS];
        int32_t own[REPRO_MAX_BANKS];
        int32_t taken = (int32_t)(after[i] & 1);
        int32_t votes = 0;
        int32_t wrong;

        for (b = 0; b < banks; b++) {
            slot[b] = tables[b] + indices[b * REPRO_BLOCK + i];
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
                *slot[b] = (uint8_t)repro_step(value[b], taken, max_value);
        }
    }
    return misses;
}

/* The whole walk, inlined with constant `banks` and `policy` so each of
 * the dispatched specialisations unrolls its bank loops. */
static inline int64_t walk(const uint32_t *codes, int64_t n,
                           const uint64_t *pcs, const uint8_t *takens,
                           const uint8_t *conditionals, int32_t scheme,
                           int32_t bits, int32_t history_bits,
                           uint64_t history_seed,
                           int32_t bank0_bits, const int32_t banks,
                           const int32_t policy, int64_t threshold,
                           int64_t max_value, uint8_t *const *tables,
                           int64_t warmup)
{
    uint64_t words[REPRO_BLOCK];
    uint64_t after[REPRO_BLOCK];
    uint32_t indices[REPRO_MAX_BANKS * REPRO_BLOCK];
    uint64_t history = history_seed & repro_mask(history_bits);
    int64_t misses = 0;
    int64_t seen = 0;
    int64_t start;

    for (start = 0; start < n; start += REPRO_BLOCK) {
        int64_t stop = n - start > REPRO_BLOCK ? start + REPRO_BLOCK : n;
        int64_t m = repro_gather(codes, pcs, takens, conditionals, start,
                                 stop, &history, words, after);

        repro_indices(words, after, m, scheme, banks, bits, history_bits,
                      bank0_bits, indices);
        misses += repro_walk_block(indices, after, m, banks, policy,
                                   threshold, max_value, tables,
                                   warmup - seen);
        seen += m;
    }
    return misses;
}

/* Walk the trace's conditional events through `banks` majority-voted
 * tables; return the misses past `warmup`, or -1 (tables untouched)
 * for an unsupported geometry or policy.
 *
 *   scheme        REPRO_SCHEME_*: bimodal, gshare and gselect take one
 *                 bank, e-gskew three, the skewing family 1, 3 or 5
 *   bits          index bits per bank (<= 32); each bank holds
 *                 1 << bits counters
 *   history_bits  global-history length (<= 63); history_seed is the
 *                 register before the first event
 *   bank0_bits    e-gskew's bank-0 history bits (0 elsewhere)
 *   policy        REPRO_POLICY_TOTAL / _PARTIAL / _LAZY
 *   max_value     at most 255: a counter is one byte
 *   tables        one pointer per bank, each to its 1 << bits one-byte
 *                 counters (the predictor's own buffers); mutated in
 *                 place to the final state (bit-identical to the
 *                 generic engine's)
 */
int64_t repro_walk(const uint32_t *codes, int64_t n, const uint64_t *pcs,
                   const uint8_t *takens, const uint8_t *conditionals,
                   int32_t scheme, int32_t bits, int32_t history_bits,
                   uint64_t history_seed, int32_t bank0_bits,
                   int32_t banks, int32_t policy, int64_t threshold,
                   int64_t max_value, uint8_t **tables, int64_t warmup)
{
    int32_t banks_ok;

    switch (scheme) {
    case REPRO_SCHEME_BIMODAL:
    case REPRO_SCHEME_GSHARE:
    case REPRO_SCHEME_GSELECT:
        banks_ok = banks == 1;
        break;
    case REPRO_SCHEME_SKEW:
        banks_ok = banks == 1 || banks == 3 || banks == 5;
        break;
    case REPRO_SCHEME_EGSKEW:
        banks_ok = banks == 3;
        break;
    default:
        banks_ok = 0;
    }
    if (!banks_ok || bits < 0 || bits > REPRO_MAX_INDEX_BITS
        || history_bits < 0 || history_bits > REPRO_MAX_HISTORY_BITS
        || bank0_bits < 0 || bank0_bits > REPRO_MAX_HISTORY_BITS
        || max_value < 0 || max_value > UINT8_MAX)
        return -1;

#define REPRO_WALK(B, P)                                                  \
    walk(codes, n, pcs, takens, conditionals, scheme, bits, history_bits, \
         history_seed, bank0_bits, B, P, threshold, max_value, tables,    \
         warmup)
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

/* Walk the trace's conditional events through an agree predictor;
 * return the misses past `warmup`, or -1 (tables untouched) for an
 * unsupported geometry.
 *
 *   bits, history_bits, history_seed
 *             the PHT's gshare geometry, as for repro_walk
 *   bias_bits the biasing-bit table holds 1 << bias_bits slots,
 *             indexed by the low address bits
 *   values    the PHT's 1 << bits one-byte counters, mutated in place
 *             to the final state
 *   bias      biasing bits: -1 = unlatched, else the latched outcome;
 *             mutated in place as slots latch
 *
 * The prediction uses the slot's bias as it stands (default taken when
 * unlatched); the slot then latches to the outcome on its first
 * execution, and the PHT trains toward "the outcome agreed with the
 * bias" — the order AgreePredictor.predict_and_update uses.
 */
int64_t repro_walk_agree(const uint32_t *codes, int64_t n,
                         const uint64_t *pcs, const uint8_t *takens,
                         const uint8_t *conditionals, int32_t bits,
                         int32_t history_bits, uint64_t history_seed,
                         int32_t bias_bits, int64_t threshold,
                         int64_t max_value, uint8_t *values, int8_t *bias,
                         int64_t warmup)
{
    uint64_t words[REPRO_BLOCK];
    uint64_t after[REPRO_BLOCK];
    uint32_t indices[REPRO_BLOCK];
    uint32_t slots[REPRO_BLOCK];
    uint64_t history = history_seed & repro_mask(history_bits);
    uint64_t slot_mask = repro_mask(bias_bits);
    int64_t misses = 0;
    int64_t seen = 0;
    int64_t start;

    if (bits < 0 || bits > REPRO_MAX_INDEX_BITS || history_bits < 0
        || history_bits > REPRO_MAX_HISTORY_BITS || bias_bits < 0
        || bias_bits > REPRO_MAX_INDEX_BITS || max_value < 0
        || max_value > UINT8_MAX)
        return -1;

    for (start = 0; start < n; start += REPRO_BLOCK) {
        int64_t stop = n - start > REPRO_BLOCK ? start + REPRO_BLOCK : n;
        int64_t m = repro_gather(codes, pcs, takens, conditionals, start,
                                 stop, &history, words, after);
        int64_t i;

        repro_gshare(words, after, m, bits, history_bits, indices);
        for (i = 0; i < m; i++)
            slots[i] = (uint32_t)(words[i] & slot_mask);
        for (i = 0; i < m; i++) {
            uint8_t *slot = values + indices[i];
            int8_t *latch = bias + slots[i];
            int64_t value = *slot;
            int32_t taken = (int32_t)(after[i] & 1);
            int32_t predicted_bias = *latch < 0 ? 1 : *latch;
            int32_t prediction =
                value >= threshold ? predicted_bias : !predicted_bias;

            misses += (prediction != taken) & (i + seen >= warmup);
            if (*latch < 0)
                *latch = (int8_t)taken;
            *slot = (uint8_t)repro_step(value, taken == *latch, max_value);
        }
        seen += m;
    }
    return misses;
}

/* ---- The fully-associative LRU table ----------------------------------
 *
 * repro_walk_lru walks repro.predictors.associative.
 * FullyAssociativePredictor: counters tagged with the full (word
 * address, history) pair, replaced least-recently-used.  A lookup that
 * misses predicts taken and installs the pair (evicting the LRU pair
 * once `entries` are resident) with its counter weakly toward the
 * outcome, counter_init_value's (max_value + 1) / 2 when taken and one
 * less when not; a hit predicts from the counter, trains it and makes
 * the pair the most recent.  The history is as for repro_walk.
 *
 * `keys` (a word, history pair per slot) and `values` hold `capacity`
 * slots, the resident pairs first (counts[0] of them), least recent
 * first, on entry and on return; counts[1] returns the lookups that
 * missed.  min(entries, resident + conditional events) slots always
 * suffice.  The walk copies them into one allocation: the slots chained
 * from a power-of-two bucket array and threaded by a circular LRU list
 * through one more, sentinel slot.  It returns the mispredictions past
 * `warmup`, or -1 (nothing written) for unsupported arguments, a failed
 * allocation or a table that outgrows its slots.
 */

typedef struct {
    uint64_t word, history;
    int32_t older, newer, chain; /* chain: the next in the bucket, or -1 */
    uint8_t value;
} repro_lru_slot;

typedef struct {
    repro_lru_slot *slots;
    int32_t *buckets;
    uint64_t bucket_mask;
    int32_t sentinel; /* its newer slot is the LRU pair, its older the MRU */
} repro_lru;

/* splitmix64's finaliser over a (word, history) pair. */
static inline uint64_t repro_pair_hash(uint64_t word, uint64_t history)
{
    uint64_t z = word * UINT64_C(0x9E3779B97F4A7C15) + history;

    z = (z ^ (z >> 30)) * UINT64_C(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)) * UINT64_C(0x94D049BB133111EB);
    return z ^ (z >> 31);
}

static inline int32_t *repro_lru_bucket(const repro_lru *t, uint64_t word,
                                        uint64_t history)
{
    return t->buckets + (repro_pair_hash(word, history) & t->bucket_mask);
}

/* Thread slot s in as the MRU pair. */
static inline void repro_lru_push(repro_lru *t, int32_t s)
{
    repro_lru_slot *sentinel = t->slots + t->sentinel;

    t->slots[s].older = sentinel->older;
    t->slots[s].newer = t->sentinel;
    t->slots[sentinel->older].newer = s;
    sentinel->older = s;
}

static inline void repro_lru_unlink(repro_lru *t, int32_t s)
{
    t->slots[t->slots[s].older].newer = t->slots[s].newer;
    t->slots[t->slots[s].newer].older = t->slots[s].older;
}

/* Hash slot s's pair and make it the MRU pair. */
static inline void repro_lru_insert(repro_lru *t, int32_t s)
{
    int32_t *bucket = repro_lru_bucket(t, t->slots[s].word,
                                       t->slots[s].history);

    t->slots[s].chain = *bucket;
    *bucket = s;
    repro_lru_push(t, s);
}

int64_t repro_walk_lru(const uint32_t *codes, int64_t n, const uint64_t *pcs,
                       const uint8_t *takens, const uint8_t *conditionals,
                       int32_t history_bits, uint64_t history_seed,
                       int64_t entries, int64_t threshold, int64_t max_value,
                       uint64_t *keys, uint8_t *values, int64_t capacity,
                       int64_t *counts, int64_t warmup)
{
    uint64_t block_words[REPRO_BLOCK];
    uint64_t after[REPRO_BLOCK];
    uint64_t history = history_seed & repro_mask(history_bits);
    uint64_t history_mask = repro_mask(history_bits);
    int64_t size = counts[0], buckets = 2, lookups_missed = 0;
    int64_t misses = 0, seen = 0, start, i;
    int32_t s;
    repro_lru t;

    if (history_bits < 0 || history_bits > REPRO_MAX_HISTORY_BITS
        || entries < 1 || max_value < 1 || max_value > UINT8_MAX
        || capacity > INT32_MAX / 2 || size < 0 || size > capacity)
        return -1;
    while (buckets < 2 * capacity)
        buckets *= 2;
    t.slots = malloc((size_t)(capacity + 1) * sizeof(repro_lru_slot)
                     + (size_t)buckets * sizeof(int32_t));
    if (t.slots == NULL)
        return -1;
    t.buckets = (int32_t *)(t.slots + capacity + 1);
    t.bucket_mask = (uint64_t)buckets - 1;
    t.sentinel = (int32_t)capacity;
    t.slots[capacity].older = t.slots[capacity].newer = t.sentinel;
    memset(t.buckets, 0xff, (size_t)buckets * sizeof(int32_t));
    for (s = 0; s < size; s++) {
        t.slots[s].word = keys[2 * s];
        t.slots[s].history = keys[2 * s + 1];
        t.slots[s].value = values[s];
        repro_lru_insert(&t, s);
    }

    for (start = 0; start < n; start += REPRO_BLOCK) {
        int64_t stop = n - start > REPRO_BLOCK ? start + REPRO_BLOCK : n;
        int64_t m = repro_gather(codes, pcs, takens, conditionals, start,
                                 stop, &history, block_words, after);

        for (i = 0; i < m; i++) {
            uint64_t word = block_words[i];
            uint64_t key = repro_history(after, i, history_mask);
            int32_t taken = (int32_t)(after[i] & 1);
            int32_t prediction = 1;

            s = *repro_lru_bucket(&t, word, key);
            while (s >= 0 && (t.slots[s].word != word
                              || t.slots[s].history != key))
                s = t.slots[s].chain;
            if (s >= 0) {
                prediction = t.slots[s].value >= threshold;
                t.slots[s].value = (uint8_t)repro_step(t.slots[s].value,
                                                       taken, max_value);
                repro_lru_unlink(&t, s);
                repro_lru_push(&t, s);
            } else {
                lookups_missed++;
                if (size >= entries) {
                    /* Evict the LRU pair: out of its chain, then the list. */
                    int32_t *link;

                    s = t.slots[t.sentinel].newer;
                    link = repro_lru_bucket(&t, t.slots[s].word,
                                            t.slots[s].history);
                    while (*link != s)
                        link = &t.slots[*link].chain;
                    *link = t.slots[s].chain;
                    repro_lru_unlink(&t, s);
                } else if (size < capacity) {
                    s = (int32_t)size++;
                } else {
                    free(t.slots);
                    return -1;
                }
                t.slots[s].word = word;
                t.slots[s].history = key;
                t.slots[s].value = (uint8_t)((max_value + 1) / 2 - !taken);
                repro_lru_insert(&t, s);
            }
            misses += (prediction != taken) & (i + seen >= warmup);
        }
        seen += m;
    }

    for (i = 0, s = t.slots[t.sentinel].newer; s != t.sentinel;
         i++, s = t.slots[s].newer) {
        keys[2 * i] = t.slots[s].word;
        keys[2 * i + 1] = t.slots[s].history;
        values[i] = t.slots[s].value;
    }
    counts[0] = size;
    counts[1] = lookups_missed;
    free(t.slots);
    return misses;
}

/* ---- The (address, history) pair pass --------------------------------
 *
 * repro_pair_pass walks the trace's conditional events once for one
 * history length (the register seeded empty, as repro.traces.pairs
 * forms the substream) and writes, for the k-th of them:
 *
 *   ids[k]        the dense id of its (word address, history) pair,
 *                 the pairs numbered in order of first use;
 *   distances[k]  its last-use distance: the number of distinct pairs
 *                 referenced since the pair's previous use, or -1 on
 *                 its first use (repro.aliasing.distance.
 *                 LastUseDistanceTracker).
 *
 * The distances come from a Fenwick tree over the events' positions
 * that holds one mark at each pair's latest use.  Every mark lies
 * before the current position, so a reference's distance is the number
 * of pairs seen minus the marks at or before its pair's previous use;
 * the mark then moves to the current position.  O(log n) per event,
 * one int32 per event.  The pairs sit in an open-addressed hash table
 * that doubles as it fills: memory is the outputs and the tree, plus
 * the distinct pairs.
 *
 * In the same pass it counts the misses of `tables` tagged
 * direct-mapped tables (repro.aliasing.tagged_table), table t indexed
 * under schemes[t] (bimodal, gshare or gselect, as repro_walk indexes
 * them) with bits[t] index bits.  Each holds one uint32 tag per entry,
 * the id + 1 of the pair that wrote it last (0: empty); a reference
 * misses when its entry holds another tag, and writes its own.
 * misses[t] returns the count.
 *
 * `count` is the room in ids and distances.  Returns the number of
 * distinct pairs; -1 for unsupported arguments or more conditional
 * events than `count`, -2 for a failed allocation (the outputs are then
 * partly written).
 */

typedef struct {
    uint64_t word, history;
    int32_t last; /* the position of the pair's latest use */
} repro_pair;

typedef struct {
    repro_pair *pairs;
    int32_t *slots; /* a pair id, or -1 */
    int64_t size, room;
    uint64_t slot_mask;
} repro_pairs;

/* Double the slots and re-hash every pair into them. */
static int32_t repro_pairs_rehash(repro_pairs *p)
{
    uint64_t mask = 2 * p->slot_mask + 1;
    int32_t *slots = malloc((size_t)(mask + 1) * sizeof(int32_t));
    int64_t id;

    if (slots == NULL)
        return -1;
    memset(slots, 0xff, (size_t)(mask + 1) * sizeof(int32_t));
    for (id = 0; id < p->size; id++) {
        uint64_t i = repro_pair_hash(p->pairs[id].word,
                                     p->pairs[id].history) & mask;

        while (slots[i] >= 0)
            i = (i + 1) & mask;
        slots[i] = (int32_t)id;
    }
    free(p->slots);
    p->slots = slots;
    p->slot_mask = mask;
    return 0;
}

/* The id of a pair, a new one on its first use; -1 if out of memory. */
static inline int64_t repro_pairs_id(repro_pairs *p, uint64_t word,
                                     uint64_t history)
{
    uint64_t i = repro_pair_hash(word, history) & p->slot_mask;
    int32_t id;

    while ((id = p->slots[i]) >= 0) {
        if (p->pairs[id].word == word && p->pairs[id].history == history)
            return id;
        i = (i + 1) & p->slot_mask;
    }
    if (p->size == p->room) {
        repro_pair *pairs = realloc(p->pairs, (size_t)(2 * p->room)
                                                  * sizeof(repro_pair));

        if (pairs == NULL)
            return -1;
        p->pairs = pairs;
        p->room *= 2;
    }
    id = (int32_t)p->size++;
    p->pairs[id].word = word;
    p->pairs[id].history = history;
    p->pairs[id].last = -1;
    p->slots[i] = id;
    if ((uint64_t)p->size * 2 > p->slot_mask && repro_pairs_rehash(p) < 0)
        return -1;
    return id;
}

/* Add delta at 0-based position of a Fenwick tree over `size` slots. */
static inline void repro_fenwick_add(int32_t *tree, int64_t size,
                                     int64_t position, int32_t delta)
{
    int64_t i;

    for (i = position + 1; i <= size; i += i & -i)
        tree[i] += delta;
}

/* The sum over 0-based positions [0, position]. */
static inline int64_t repro_fenwick_prefix(const int32_t *tree,
                                           int64_t position)
{
    int64_t i, sum = 0;

    for (i = position + 1; i > 0; i -= i & -i)
        sum += tree[i];
    return sum;
}

int64_t repro_pair_pass(const uint32_t *codes, int64_t n, const uint64_t *pcs,
                        const uint8_t *takens, const uint8_t *conditionals,
                        int32_t history_bits, uint32_t *ids,
                        int32_t *distances, int64_t count, int32_t tables,
                        const int32_t *schemes, const int32_t *bits,
                        int64_t *misses)
{
    uint64_t block_words[REPRO_BLOCK];
    uint64_t after[REPRO_BLOCK];
    uint32_t indices[REPRO_BLOCK];
    uint64_t history = 0, history_mask = repro_mask(history_bits);
    uint64_t entries = 0;
    int64_t seen = 0, start, k, result = -2;
    int32_t t, *tree = NULL;
    uint32_t *tags = NULL;
    repro_pairs p = {NULL, NULL, 0, 1024, 2047};

    if (history_bits < 0 || history_bits > REPRO_MAX_HISTORY_BITS
        || count < 0 || count >= INT32_MAX || tables < 0)
        return -1;
    for (t = 0; t < tables; t++) {
        if (schemes[t] < REPRO_SCHEME_BIMODAL
            || schemes[t] > REPRO_SCHEME_GSELECT || bits[t] < 0
            || bits[t] > REPRO_MAX_INDEX_BITS)
            return -1;
        entries += UINT64_C(1) << bits[t];
        misses[t] = 0;
    }
    if (entries > SIZE_MAX / sizeof(uint32_t))
        return -2;
    tree = calloc((size_t)count + 1, sizeof(int32_t));
    tags = calloc((size_t)entries + 1, sizeof(uint32_t));
    p.pairs = malloc((size_t)p.room * sizeof(repro_pair));
    p.slots = malloc((size_t)(p.slot_mask + 1) * sizeof(int32_t));
    if (tree == NULL || tags == NULL || p.pairs == NULL || p.slots == NULL)
        goto done;
    memset(p.slots, 0xff, (size_t)(p.slot_mask + 1) * sizeof(int32_t));

    for (start = 0; start < n; start += REPRO_BLOCK) {
        int64_t stop = n - start > REPRO_BLOCK ? start + REPRO_BLOCK : n;
        int64_t m = repro_gather(codes, pcs, takens, conditionals, start,
                                 stop, &history, block_words, after);
        uint32_t *tag = tags;

        if (m > count - seen) {
            result = -1;
            goto done;
        }
        for (k = 0; k < m; k++) {
            int64_t position = seen + k;
            int64_t id = repro_pairs_id(&p, block_words[k],
                                        repro_history(after, k, history_mask));
            int32_t last;

            if (id < 0)
                goto done;
            last = p.pairs[id].last;
            if (last >= 0) {
                /* Each pair seen holds one mark, this one's at `last`. */
                distances[position] = (int32_t)(
                    p.size - repro_fenwick_prefix(tree, last));
                repro_fenwick_add(tree, count, last, -1);
            } else {
                distances[position] = -1;
            }
            repro_fenwick_add(tree, count, position, 1);
            p.pairs[id].last = (int32_t)position;
            ids[position] = (uint32_t)id;
        }
        for (t = 0; t < tables; t++) {
            const uint32_t *block_ids = ids + seen;
            int64_t missed = 0;

            repro_indices(block_words, after, m, schemes[t], 1, bits[t],
                          history_bits, 0, indices);
            for (k = 0; k < m; k++) {
                uint32_t want = block_ids[k] + 1;

                missed += tag[indices[k]] != want;
                tag[indices[k]] = want;
            }
            misses[t] += missed;
            tag += (size_t)1 << bits[t];
        }
        seen += m;
    }
    result = p.size;

done:
    free(tree);
    free(tags);
    free(p.pairs);
    free(p.slots);
    return result;
}

/* ---- The synthetic-program runner -------------------------------------
 *
 * repro_run_program executes a compiled synthetic program
 * (repro.traces.synthetic.cfg._compile) and writes the row code of each
 * event it emits, exactly as the Python runner in cfg.py does.  Its
 * randomness is a port of CPython's Mersenne Twister
 * (Modules/_randommodule.c), started from the state
 * random.Random(seed).getstate() holds, so every draw is the one the
 * Python runner's rng makes at the same point of the run:
 *
 *   random()      genrand_res53: two words, 53 bits;
 *   randint(a, b) a + _randbelow_with_getrandbits(b - a + 1): draws of
 *                 bit_length(n) bits, rejected until below n.
 *
 * CPython guarantees the random() stream across versions, but not
 * randint's algorithm; tests/traces/synthetic/test_trace_pins.py and the
 * runners' differential test are what would catch a drift.
 */

#define REPRO_MT_N 624
#define REPRO_MT_M 397

typedef struct {
    uint32_t words[REPRO_MT_N];
    int32_t index;
} repro_mt;

static uint32_t repro_mt_next(repro_mt *mt)
{
    static const uint32_t mag01[2] = {0x0U, 0x9908b0dfU};
    uint32_t *w = mt->words;
    uint32_t y;

    if (mt->index >= REPRO_MT_N) {
        int32_t k;

        for (k = 0; k < REPRO_MT_N - REPRO_MT_M; k++) {
            y = (w[k] & 0x80000000U) | (w[k + 1] & 0x7fffffffU);
            w[k] = w[k + REPRO_MT_M] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        for (; k < REPRO_MT_N - 1; k++) {
            y = (w[k] & 0x80000000U) | (w[k + 1] & 0x7fffffffU);
            w[k] = w[k + (REPRO_MT_M - REPRO_MT_N)] ^ (y >> 1)
                   ^ mag01[y & 0x1U];
        }
        y = (w[REPRO_MT_N - 1] & 0x80000000U) | (w[0] & 0x7fffffffU);
        w[REPRO_MT_N - 1] = w[REPRO_MT_M - 1] ^ (y >> 1) ^ mag01[y & 0x1U];
        mt->index = 0;
    }
    y = w[mt->index++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

/* random.Random.random */
static double repro_mt_random(repro_mt *mt)
{
    uint32_t a = repro_mt_next(mt) >> 5;
    uint32_t b = repro_mt_next(mt) >> 6;

    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* random.Random.getrandbits(k), 1 <= k <= 64: 32-bit words from the
 * least significant up, the last one cut to the bits left. */
static uint64_t repro_mt_bits(repro_mt *mt, int32_t k)
{
    uint64_t low;

    if (k <= 32)
        return repro_mt_next(mt) >> (32 - k);
    low = repro_mt_next(mt);
    return ((uint64_t)(repro_mt_next(mt) >> (64 - k)) << 32) | low;
}

/* random.Random._randbelow_with_getrandbits(n), n >= 1 */
static int64_t repro_mt_below(repro_mt *mt, int64_t n)
{
    int32_t k = 0;
    uint64_t r;

    while (k < 64 && ((uint64_t)n >> k) != 0)
        k++;
    do
        r = repro_mt_bits(mt, k);
    while (r >= (uint64_t)n);
    return (int64_t)r;
}

/* Node records: REPRO_NODE_FIELDS int32 each.
 *
 *   0 kind    branch, loop or call
 *   1 slot    the behaviour slot (branch, loop) or the callee's
 *             procedure number (call)
 *   2-4       codes: taken (the call's, for a call), not taken, and the
 *             join that ends a taken branch's then-body
 *   5-6       [first, last) node range of the then-body (the loop body)
 *   7-8       [first, last) node range of the else-body
 *
 * A procedure is three int32: its body's node range and its return
 * code.  Procedure 0 is the program's main procedure. */
#define REPRO_NODE_FIELDS 9
#define REPRO_NODE_BRANCH 0
#define REPRO_NODE_LOOP 1
#define REPRO_NODE_CALL 2

/* Behaviour kinds, with their two int64 and two double parameters.
 *
 *   biased      floats: p_taken
 *   loop        ints: trip count, jitter
 *   pattern     ints: blob offset, pattern length
 *   correlated  ints: blob offset of the truth table, history mask;
 *               floats: noise
 *   markov      ints: start state; floats: p_stay_taken,
 *               p_stay_not_taken */
#define REPRO_BIASED 0
#define REPRO_LOOP 1
#define REPRO_PATTERN 2
#define REPRO_CORRELATED 3
#define REPRO_MARKOV 4

/* Calls nested this deep are skipped; bodies nested deeper than
 * REPRO_MAX_NESTING are refused (the runner recurses once per level). */
#define REPRO_MAX_CALL_DEPTH 24
#define REPRO_MAX_NESTING 256

typedef struct {
    const int32_t *nodes;
    const int32_t *procedures;
    const int32_t *kinds;
    const int64_t *ints;
    const double *floats;
    const uint8_t *blob;
    int64_t *state; /* per slot: loop trips left, pattern position,
                       markov state */
    int32_t *codes;
    int64_t n;
    int64_t demand;
    int32_t stop;   /* the demand is met, or the program was refused */
    int32_t failed;
    uint32_t history; /* the program's own 16-bit path history */
    repro_mt mt;
} repro_runner;

static inline int32_t repro_outcome(repro_runner *r, int32_t slot)
{
    const int64_t *ints = r->ints + 2 * (int64_t)slot;
    const double *floats = r->floats + 2 * (int64_t)slot;
    int64_t *state = r->state + slot;
    int32_t taken;

    switch (r->kinds[slot]) {
    case REPRO_BIASED:
        return repro_mt_random(&r->mt) < floats[0];
    case REPRO_LOOP:
        if (--*state > 0)
            return 1;
        if (ints[1]) {
            int64_t low = ints[0] - ints[1] > 1 ? ints[0] - ints[1] : 1;

            *state = low + repro_mt_below(&r->mt, ints[0] + ints[1] - low + 1);
        } else {
            *state = ints[0];
        }
        return 0;
    case REPRO_PATTERN:
        taken = r->blob[ints[0] + *state];
        if (++*state == ints[1])
            *state = 0;
        return taken;
    case REPRO_CORRELATED:
        taken = r->blob[ints[0] + (r->history & ints[1])];
        if (floats[0] != 0.0 && repro_mt_random(&r->mt) < floats[0])
            taken = !taken;
        return taken;
    default: /* REPRO_MARKOV; the kinds were checked on entry */
        taken = (int32_t)*state;
        if (repro_mt_random(&r->mt) >= (taken ? floats[0] : floats[1]))
            *state = !taken;
        return taken;
    }
}

/* Append one code; true once the demand is met. */
static inline int32_t repro_emit(repro_runner *r, int32_t code)
{
    r->codes[r->n++] = code;
    if (r->n == r->demand)
        r->stop = 1;
    return r->stop;
}

static inline int32_t repro_shift(repro_runner *r, int32_t taken)
{
    r->history = ((r->history << 1) | (uint32_t)taken) & 0xFFFFU;
    return taken;
}

static void repro_body(repro_runner *r, int32_t first, int32_t last,
                       int32_t depth)
{
    int32_t i;

    if (depth > REPRO_MAX_NESTING) {
        r->stop = r->failed = 1;
        return;
    }
    for (i = first; i < last; i++) {
        const int32_t *node = r->nodes + REPRO_NODE_FIELDS * (int64_t)i;
        const int32_t *callee;

        switch (node[0]) {
        case REPRO_NODE_BRANCH:
            if (repro_shift(r, repro_outcome(r, node[1]))) {
                if (repro_emit(r, node[2]))
                    return;
                if (node[5] < node[6]) {
                    repro_body(r, node[5], node[6], depth + 1);
                    if (r->stop)
                        return;
                }
                if (repro_emit(r, node[4]))  /* jump over the else path */
                    return;
            } else {
                if (repro_emit(r, node[3]))
                    return;
                if (node[7] < node[8]) {
                    repro_body(r, node[7], node[8], depth + 1);
                    if (r->stop)
                        return;
                }
            }
            break;
        case REPRO_NODE_LOOP:
            for (;;) {
                if (node[5] < node[6]) {
                    repro_body(r, node[5], node[6], depth + 1);
                    if (r->stop)
                        return;
                }
                if (!repro_shift(r, repro_outcome(r, node[1]))) {
                    if (repro_emit(r, node[3]))
                        return;
                    break;
                }
                if (repro_emit(r, node[2]))
                    return;
            }
            break;
        case REPRO_NODE_CALL:
            if (depth >= REPRO_MAX_CALL_DEPTH)
                break;
            callee = r->procedures + 3 * (int64_t)node[1];
            if (repro_emit(r, node[2]))
                return;
            repro_body(r, callee[0], callee[1], depth + 1);
            if (r->stop || repro_emit(r, callee[2]))
                return;
            break;
        default:
            r->stop = r->failed = 1;
            return;
        }
    }
}

/* Run a compiled program from its start until it has emitted `demand`
 * events; write their row codes to codes[0 .. demand) and return
 * `demand`, or -1 for a behaviour or node kind the runner does not know
 * or nesting past REPRO_MAX_NESTING.  Writes nothing past codes[demand).
 *
 *   nodes, procedures  the program's node records and procedures (see
 *                      above); procedure 0 is run forever
 *   kinds, ints, floats, blob
 *                      behaviour_count behaviour slots and the bytes of
 *                      their patterns and truth tables
 *   mt_words, mt_index the Mersenne Twister's 624 words and position
 *   state              behaviour_count int64 of scratch
 *
 * Every id, range and blob offset is trusted: the caller checks them
 * (repro.traces.synthetic.cfg._check_program). */
int64_t repro_run_program(const int32_t *nodes, const int32_t *procedures,
                          const int32_t *kinds, const int64_t *ints,
                          const double *floats, int32_t behavior_count,
                          const uint8_t *blob, const uint32_t *mt_words,
                          int32_t mt_index, int64_t *state,
                          int32_t *codes, int64_t demand)
{
    repro_runner r;
    int32_t slot;

    for (slot = 0; slot < behavior_count; slot++) {
        switch (kinds[slot]) {
        case REPRO_LOOP:
            state[slot] = ints[2 * (int64_t)slot];
            break;
        case REPRO_MARKOV:
            state[slot] = ints[2 * (int64_t)slot] != 0;
            break;
        case REPRO_BIASED:
        case REPRO_PATTERN:
        case REPRO_CORRELATED:
            state[slot] = 0;
            break;
        default:
            return -1;
        }
    }
    if (mt_index < 0 || mt_index > REPRO_MT_N)
        return -1;
    if (demand <= 0)
        return 0;

    r.nodes = nodes;
    r.procedures = procedures;
    r.kinds = kinds;
    r.ints = ints;
    r.floats = floats;
    r.blob = blob;
    r.state = state;
    r.codes = codes;
    r.n = 0;
    r.demand = demand;
    r.stop = r.failed = 0;
    r.history = 0;
    for (slot = 0; slot < REPRO_MT_N; slot++)
        r.mt.words[slot] = mt_words[slot];
    r.mt.index = mt_index;

    while (!r.stop) {
        repro_body(&r, procedures[0], procedures[1], 0);
        if (!r.stop)
            repro_emit(&r, procedures[2]);
    }
    return r.failed ? -1 : r.n;
}

/* random.Random.random over a caller-held twister: fills out[0 .. n)
 * and leaves the state where the last draw left it.  Returns n, or -1
 * for a position past the words (nothing drawn). */
int64_t repro_random_block(uint32_t *mt_words, int32_t *mt_index,
                           double *out, int64_t n)
{
    repro_mt mt;
    int64_t i;

    if (*mt_index < 0 || *mt_index > REPRO_MT_N)
        return -1;
    for (i = 0; i < REPRO_MT_N; i++)
        mt.words[i] = mt_words[i];
    mt.index = *mt_index;
    for (i = 0; i < n; i++)
        out[i] = repro_mt_random(&mt);
    for (i = 0; i < REPRO_MT_N; i++)
        mt_words[i] = mt.words[i];
    *mt_index = mt.index;
    return n;
}

/* ---- The synthetic-program builder -------------------------------------
 *
 * repro_build_program builds the random structured program that
 * repro.traces.synthetic.cfg.build_program builds from the same twister
 * state, and writes it straight out as the flat arrays
 * repro.traces.synthetic.cfg._compile makes of it, in _compile's order.
 * It is a port of cfg._Builder and of BehaviorMix.draw / draw_loop that
 * makes every draw the Python builder makes, in the same order, through
 * ports of the random.Random methods they call (CPython 3.11,
 * Lib/random.py, over the twister above):
 *
 *   randint(a, b)    a + _randbelow(b - a + 1)
 *   uniform(a, b)    a + (b - a) * random()
 *   choice(seq)      seq[_randbelow(len(seq))]
 *   choices(p, w)    bisect_right(cum_weights, random() * total, 0, 4)
 *   sample(p, k)     its pool branch for small populations and its
 *                    rejection ("set") branch for large ones
 *   shuffle(x)       Fisher-Yates from the end, _randbelow(i + 1)
 *   expovariate(l)   -log(1.0 - random()) / l
 *   getrandbits(32)  one word
 *
 * A correlated branch's truth table comes from random.Random(seed) for
 * a 32-bit seed: CPython's init_by_array over that one word.
 *
 * The builder's arithmetic is in doubles, with Python's operation order
 * kept term for term, and the kernel is compiled with
 * -ffp-contract=off, so no multiply-add is fused: every sum, product
 * and comparison rounds exactly as CPython's does.
 *
 * Inputs outside the port's domain (a loop trip count past 2**61, an
 * address near 2**64, more records than int32 can number, calls chained
 * deeper than REPRO_MAX_CALL_CHAIN) return -1, and the Python builder,
 * the port's oracle, takes over. */

/* random.Random(key) for a key below 2**32: init_by_array over one
 * word (Modules/_randommodule.c). */
static void repro_mt_seed(repro_mt *mt, uint32_t key)
{
    uint32_t *w = mt->words;
    int32_t i, k;

    w[0] = 19650218U;
    for (i = 1; i < REPRO_MT_N; i++)
        w[i] = 1812433253U * (w[i - 1] ^ (w[i - 1] >> 30)) + (uint32_t)i;
    i = 1;
    for (k = REPRO_MT_N; k; k--) {
        w[i] = (w[i] ^ ((w[i - 1] ^ (w[i - 1] >> 30)) * 1664525U)) + key;
        if (++i >= REPRO_MT_N) {
            w[0] = w[REPRO_MT_N - 1];
            i = 1;
        }
    }
    for (k = REPRO_MT_N - 1; k; k--) {
        w[i] = (w[i] ^ ((w[i - 1] ^ (w[i - 1] >> 30)) * 1566083941U))
               - (uint32_t)i;
        if (++i >= REPRO_MT_N) {
            w[0] = w[REPRO_MT_N - 1];
            i = 1;
        }
    }
    w[0] = 0x80000000U;
    mt->index = REPRO_MT_N;
}

static inline int64_t repro_randint(repro_mt *mt, int64_t a, int64_t b)
{
    return a + repro_mt_below(mt, b - a + 1);
}

static inline double repro_uniform(repro_mt *mt, double a, double b)
{
    return a + (b - a) * repro_mt_random(mt);
}

/* The longest correlated history a truth table is built for: the
 * runners read 16 history bits. */
#define REPRO_MAX_CORRELATED_BITS 16
/* Loop trip counts stay below this (cfg._MAX_TRIPS). */
#define REPRO_MAX_TRIPS (INT64_C(1) << 62)
/* Procedures nest calls at most this deep while being written out. */
#define REPRO_MAX_CALL_CHAIN 2048

/* One node of the program tree as built: a body is a list linked
 * through `next`; a loop's body hangs from `then_head`. */
typedef struct {
    uint64_t pc, join;
    int32_t kind;        /* REPRO_NODE_* */
    int32_t next, then_head, else_head;
    int32_t callee;      /* a call's procedure, by build order */
    int32_t behavior;    /* REPRO_BIASED .. REPRO_MARKOV */
    int64_t ints[2];     /* loop: trips, jitter; pattern: -, length */
    double floats[2];    /* biased: p; markov: stay probabilities */
    uint32_t table_seed; /* correlated: the truth table's seed */
    int32_t bits;        /* correlated: history bits */
    uint8_t pattern[6];
} repro_bnode;

typedef struct {
    uint64_t base, return_pc;
    int32_t head;
    int32_t number;      /* compiled procedure number, -1 until written */
    double expected_cost;
} repro_bproc;

typedef struct {
    repro_mt mt;
    uint64_t address;
    int64_t block_low, block_high, max_nesting;
    int32_t fanout;
    const double *cum_weights;
    double bias_strength, hard_fraction, lambd, correlated_noise;
    int32_t correlated_bits;
    repro_bnode *nodes;
    int64_t node_count, node_capacity;
    repro_bproc *procs;
    int32_t *pool, *site, *affordable; /* scratch, one entry per procedure */
    uint8_t *marks;
    int32_t failed;
} repro_builder;

/* Outputs, each written only below its capacity; the counts run on. */
typedef struct {
    int32_t *nodes, *procs, *kinds;
    uint64_t *pcs, *targets;
    uint8_t *takens, *conditionals, *blob;
    int64_t *ints;
    double *floats;
    int64_t capacity[5], count[5]; /* records, procedures, rows, slots, blob */
    int32_t failed;
} repro_output;

#define REPRO_OUT_RECORDS 0
#define REPRO_OUT_PROCEDURES 1
#define REPRO_OUT_ROWS 2
#define REPRO_OUT_SLOTS 3
#define REPRO_OUT_BLOB 4

static int32_t repro_new_node(repro_builder *b, int32_t kind)
{
    repro_bnode *node;

    if (b->node_count == b->node_capacity) {
        int64_t capacity = b->node_capacity ? 2 * b->node_capacity : 256;
        repro_bnode *grown;

        if (capacity > INT32_MAX) {
            b->failed = 1;
            return -1;
        }
        grown = realloc(b->nodes, (size_t)capacity * sizeof(*grown));
        if (grown == NULL) {
            b->failed = 1;
            return -1;
        }
        b->nodes = grown;
        b->node_capacity = capacity;
    }
    node = b->nodes + b->node_count;
    memset(node, 0, sizeof(*node));
    node->kind = kind;
    node->next = node->then_head = node->else_head = node->callee = -1;
    return (int32_t)b->node_count++;
}

/* _Builder._advance: a few straight-line instructions, then the PC of
 * the one after them. */
static uint64_t repro_advance(repro_builder *b)
{
    uint64_t step = (uint64_t)repro_randint(&b->mt, b->block_low, b->block_high);
    uint64_t pc;

    /* Near 2**64 the Python builder's addresses outgrow uint64. */
    if (b->address > UINT64_MAX - 8
        || step > (UINT64_MAX - 8 - b->address) / 4) {
        b->failed = 1;
        return 0;
    }
    pc = b->address + 4 * step;
    b->address = pc + 4;
    return pc;
}

/* max(12, int(expovariate(lambd)) + 12): a long loop's trip count. */
static int64_t repro_long_trips(repro_builder *b)
{
    double x = -log(1.0 - repro_mt_random(&b->mt)) / b->lambd;

    if (!(x < (double)(REPRO_MAX_TRIPS / 2))) {
        b->failed = 1;
        return 12;
    }
    return (int64_t)x + 12 > 12 ? (int64_t)x + 12 : 12;
}

/* BehaviorMix.draw_loop */
static void repro_draw_loop(repro_builder *b, repro_bnode *node)
{
    static const int64_t jitters[3] = {0, 1, 3};

    node->behavior = REPRO_LOOP;
    if (repro_mt_random(&b->mt) < 0.45) {
        node->ints[0] = repro_randint(&b->mt, 2, 3);
        node->ints[1] = 0;
        return;
    }
    node->ints[0] = repro_long_trips(b);
    node->ints[1] = jitters[repro_mt_below(&b->mt, 3)];
}

/* BehaviorMix.draw */
static void repro_draw(repro_builder *b, repro_bnode *node)
{
    repro_mt *mt = &b->mt;
    double x = repro_mt_random(mt) * b->cum_weights[4];
    int32_t lo = 0, hi = 4, i, ones;
    double p;

    while (lo < hi) { /* bisect.bisect_right(cum_weights, x, 0, 4) */
        int32_t mid = (lo + hi) / 2;

        if (x < b->cum_weights[mid])
            hi = mid;
        else
            lo = mid + 1;
    }
    node->behavior = lo;
    switch (lo) {
    case REPRO_BIASED:
        if (repro_mt_random(mt) < b->hard_fraction)
            p = repro_uniform(mt, 0.35, 0.65);
        else
            p = b->bias_strength
                + repro_uniform(mt, 0.0, 1.0 - b->bias_strength);
        if (repro_mt_random(mt) < 0.5)
            p = 1.0 - p;
        node->floats[0] = p;
        break;
    case REPRO_LOOP:
        node->ints[0] = repro_long_trips(b);
        node->ints[1] = repro_mt_below(mt, 2);
        break;
    case REPRO_PATTERN:
        node->ints[1] = repro_randint(mt, 2, 6);
        for (i = ones = 0; i < node->ints[1]; i++)
            ones += node->pattern[i] = repro_mt_random(mt) < 0.5;
        if (ones == 0 || ones == node->ints[1])
            node->pattern[0] = !node->pattern[0];
        break;
    case REPRO_CORRELATED:
        node->bits = (int32_t)repro_randint(mt, 2, b->correlated_bits);
        node->table_seed = (uint32_t)repro_mt_bits(mt, 32);
        node->floats[0] = b->correlated_noise;
        break;
    default: /* REPRO_MARKOV */
        node->floats[0] = repro_uniform(mt, 0.95, 0.998);
        node->floats[1] = repro_uniform(mt, 0.85, 0.99);
        node->ints[0] = 1;
        break;
    }
}

/* random.Random.sample(callees, k) of the n procedures built before
 * this one, into b->site; both of CPython's branches. */
static void repro_sample(repro_builder *b, int32_t n, int32_t k)
{
    int64_t setsize = 21;
    int32_t i, j;

    if (k > 5) {
        double power = ceil(log((double)k * 3) / log(4.0));

        setsize = power < 31 ? setsize + ((int64_t)1 << (2 * (int32_t)power))
                             : INT64_MAX;
    }
    if (n <= setsize) {
        for (i = 0; i < n; i++)
            b->pool[i] = i;
        for (i = 0; i < k; i++) {
            j = (int32_t)repro_mt_below(&b->mt, n - i);
            b->site[i] = b->pool[j];
            b->pool[j] = b->pool[n - i - 1];
        }
        return;
    }
    for (i = 0; i < k; i++) {
        do
            j = (int32_t)repro_mt_below(&b->mt, n);
        while (b->marks[j]);
        b->marks[j] = 1;
        b->site[i] = j;
    }
    for (i = 0; i < k; i++)
        b->marks[b->site[i]] = 0;
}

/* _Builder._build_body over the first `callees` procedures built;
 * returns the body's head and sets its cost and static branch count. */
static int32_t repro_build_body(repro_builder *b, int64_t budget,
                                int32_t callees, int64_t depth,
                                double weight, double cost_cap,
                                double *cost_out, int64_t *branches_out)
{
    repro_mt *mt = &b->mt;
    int32_t head = -1, tail = -1, index;
    int64_t branches = 0;
    double cost = 0.0;

    while (budget > 0 && cost < cost_cap && !b->failed) {
        double remaining = cost_cap - cost;
        double roll = repro_mt_random(mt);
        repro_bnode node;

        if (roll < 0.22 && callees && depth < b->max_nesting) {
            int32_t k = b->fanout < callees ? b->fanout : callees;
            int32_t i, count = 0;

            repro_sample(b, callees, k);
            for (i = 0; i < k; i++)
                if (weight * b->procs[b->site[i]].expected_cost <= remaining)
                    b->affordable[count++] = b->site[i];
            if (count) {
                int32_t callee = b->affordable[repro_mt_below(mt, count)];

                index = repro_new_node(b, REPRO_NODE_CALL);
                if (index < 0)
                    break;
                b->nodes[index].pc = repro_advance(b);
                b->nodes[index].callee = callee;
                cost += weight * b->procs[callee].expected_cost;
                goto append;
            }
            continue;
        }
        memset(&node, 0, sizeof(node));
        if (roll < 0.38 && depth < b->max_nesting) {
            int64_t inner_budget, inner_branches, trips;
            double back_edge_cost, inner_cost;
            int32_t inner;

            repro_draw_loop(b, &node);
            if (weight * (double)node.ints[0] > remaining) {
                node.ints[0] = repro_randint(mt, 2, 4);
                node.ints[1] = 0;
            }
            if (weight * (double)node.ints[0] > remaining)
                continue; /* not even a short loop fits */
            trips = node.ints[0];
            if (trips <= 5) {
                static const int64_t short_budgets[3] = {0, 0, 1};
                int64_t drawn = short_budgets[repro_mt_below(mt, 3)];

                inner_budget = budget - 1 < drawn ? budget - 1 : drawn;
            } else {
                int64_t drawn = repro_randint(mt, 0, 3);

                inner_budget = budget - 1 < drawn ? budget - 1 : drawn;
            }
            back_edge_cost = weight * (double)trips;
            inner = repro_build_body(
                b, inner_budget, callees, depth + 1, weight * (double)trips,
                (remaining - back_edge_cost) * 0.5 > 0.0
                    ? (remaining - back_edge_cost) * 0.5 : 0.0,
                &inner_cost, &inner_branches);
            index = repro_new_node(b, REPRO_NODE_LOOP);
            if (index < 0)
                break;
            node.kind = REPRO_NODE_LOOP;
            node.next = node.else_head = node.callee = -1;
            node.then_head = inner;
            node.pc = repro_advance(b);
            b->nodes[index] = node;
            budget -= 1 + inner_branches;
            branches += 1 + inner_branches;
            cost += back_edge_cost + inner_cost;
            goto append;
        }
        {   /* an if/else region */
            int64_t then_budget = 0, else_budget = 0;
            int64_t then_branches, else_branches;
            double arm_cap, then_cost, else_cost;

            repro_draw(b, &node);
            if (depth < b->max_nesting && budget > 1) {
                then_budget = repro_randint(mt, 0, budget - 1 < 2 ? budget - 1 : 2);
                else_budget = repro_randint(
                    mt, 0, budget - 1 - then_budget < 2
                               ? budget - 1 - then_budget : 2);
            }
            node.kind = REPRO_NODE_BRANCH;
            node.next = node.callee = -1;
            node.pc = repro_advance(b);
            arm_cap = remaining * 0.5;
            node.then_head = repro_build_body(b, then_budget, callees,
                                              depth + 1, weight * 0.5,
                                              arm_cap, &then_cost,
                                              &then_branches);
            node.else_head = repro_build_body(b, else_budget, callees,
                                              depth + 1, weight * 0.5,
                                              arm_cap, &else_cost,
                                              &else_branches);
            node.join = repro_advance(b);
            index = repro_new_node(b, REPRO_NODE_BRANCH);
            if (index < 0)
                break;
            b->nodes[index] = node;
            budget -= 1 + then_branches + else_branches;
            branches += 1 + then_branches + else_branches;
            cost += weight + then_cost + else_cost;
        }
    append:
        if (tail < 0)
            head = index;
        else
            b->nodes[tail].next = index;
        tail = index;
    }
    *cost_out = cost;
    *branches_out = branches;
    return head;
}

/* _Builder._build_procedure: procedure `built`, which may call every
 * procedure built before it. */
static void repro_build_procedure(repro_builder *b, int32_t built,
                                  int64_t budget)
{
    repro_bproc *proc = b->procs + built;
    double cost_cap, cost;
    int64_t branches;

    proc->base = repro_advance(b);
    cost_cap = repro_uniform(&b->mt, 80.0, 600.0);
    proc->head = repro_build_body(b, budget, built, 0, 1.0, cost_cap,
                                  &cost, &branches);
    proc->return_pc = repro_advance(b);
    proc->expected_cost = cost + 2.0; /* call + return transfers */
}

/* _Builder._build_main: phases of loops over calls to every other
 * procedure (built 0 .. main - 1), with the odd branch between. */
static void repro_build_main(repro_builder *b, int32_t main)
{
    repro_mt *mt = &b->mt;
    repro_bproc *proc = b->procs + main;
    int32_t *targets = b->pool;
    int32_t i, j, tail = -1, index, first, last = -1;

    proc->base = repro_advance(b);
    proc->head = -1;
    /* _build_main's procedures: built last to first. */
    for (i = 0; i < main; i++)
        targets[i] = main - 1 - i;
    for (i = main - 1; i > 0; i--) { /* shuffle */
        int32_t swap;

        j = (int32_t)repro_mt_below(mt, i + 1);
        swap = targets[i];
        targets[i] = targets[j];
        targets[j] = swap;
    }
    for (i = 0; i < main && !b->failed;) {
        int32_t phase = (int32_t)repro_randint(mt, 1, 3);
        int32_t end = i + phase < main ? i + phase : main;
        int32_t loop;

        first = -1;
        for (; i < end; i++) {
            index = repro_new_node(b, REPRO_NODE_CALL);
            if (index < 0)
                return;
            b->nodes[index].pc = repro_advance(b);
            b->nodes[index].callee = targets[i];
            if (first < 0)
                first = index;
            else
                b->nodes[last].next = index;
            last = index;
        }
        i = end;
        loop = repro_new_node(b, REPRO_NODE_LOOP);
        if (loop < 0)
            return;
        b->nodes[loop].pc = repro_advance(b);
        b->nodes[loop].behavior = REPRO_LOOP;
        b->nodes[loop].ints[0] = repro_randint(mt, 8, 24);
        b->nodes[loop].ints[1] = 1;
        b->nodes[loop].then_head = first;
        if (tail < 0)
            proc->head = loop;
        else
            b->nodes[tail].next = loop;
        tail = loop;
        /* The budget is at least 1, so the roll alone decides. */
        if (repro_mt_random(mt) < 0.4) {
            repro_bnode node;

            memset(&node, 0, sizeof(node));
            node.kind = REPRO_NODE_BRANCH;
            node.next = node.then_head = node.else_head = node.callee = -1;
            node.pc = repro_advance(b); /* drawn before the behaviour */
            repro_draw(b, &node);
            node.join = repro_advance(b);
            index = repro_new_node(b, REPRO_NODE_BRANCH);
            if (index < 0)
                return;
            b->nodes[index] = node;
            b->nodes[tail].next = index;
            tail = index;
        }
    }
    proc->return_pc = repro_advance(b);
}

/* ---- Writing the tree out in _compile's order ---- */

static int64_t repro_take(repro_output *o, int32_t which, int64_t n)
{
    int64_t at = o->count[which];

    o->count[which] += n;
    return o->count[which] <= o->capacity[which] ? at : -1;
}

static void repro_row(repro_output *o, uint64_t pc, uint8_t taken,
                      uint8_t conditional, uint64_t target)
{
    int64_t at = repro_take(o, REPRO_OUT_ROWS, 1);

    if (at >= 0) {
        o->pcs[at] = pc;
        o->takens[at] = taken;
        o->conditionals[at] = conditional;
        o->targets[at] = target;
    }
}

/* One behaviour slot, with its pattern or truth table appended to the
 * blob (cfg._parameters); returns the slot number. */
static int64_t repro_slot(repro_output *o, const repro_bnode *node)
{
    int64_t slot = o->count[REPRO_OUT_SLOTS];
    int64_t at = repro_take(o, REPRO_OUT_SLOTS, 1);
    int64_t ints[2] = {node->ints[0], node->ints[1]};
    int64_t offset = o->count[REPRO_OUT_BLOB], i, blob_at;
    repro_mt table;

    if (node->behavior == REPRO_PATTERN) {
        ints[0] = offset;
        blob_at = repro_take(o, REPRO_OUT_BLOB, node->ints[1]);
        for (i = 0; blob_at >= 0 && i < node->ints[1]; i++)
            o->blob[blob_at + i] = node->pattern[i];
    } else if (node->behavior == REPRO_CORRELATED) {
        ints[0] = offset;
        ints[1] = (INT64_C(1) << node->bits) - 1;
        blob_at = repro_take(o, REPRO_OUT_BLOB, ints[1] + 1);
        if (blob_at >= 0) { /* only drawn where it is written */
            repro_mt_seed(&table, node->table_seed);
            for (i = 0; i <= ints[1]; i++)
                o->blob[blob_at + i] = repro_mt_random(&table) < 0.5;
        }
    }
    if (at >= 0) {
        o->kinds[at] = node->behavior;
        o->ints[2 * at] = ints[0];
        o->ints[2 * at + 1] = ints[1];
        o->floats[2 * at] = node->floats[0];
        o->floats[2 * at + 1] = node->floats[1];
    }
    return slot;
}

static int32_t repro_write_procedure(repro_builder *b, repro_output *o,
                                     int32_t built, int32_t chain);

/* cfg._compile's body(): reserve the body's records, then fill them,
 * writing nested bodies and first-called procedures after its own. */
static void repro_write_body(repro_builder *b, repro_output *o, int32_t head,
                             int32_t chain, int32_t range[2])
{
    int64_t first = o->count[REPRO_OUT_RECORDS], length = 0, record;
    int32_t index;

    range[0] = range[1] = 0;
    if (head < 0)
        return;
    for (index = head; index >= 0; index = b->nodes[index].next)
        length++;
    if (first + length > INT32_MAX) {
        o->failed = 1;
        return;
    }
    o->count[REPRO_OUT_RECORDS] += length;
    record = first;
    for (index = head; index >= 0 && !o->failed; index = b->nodes[index].next) {
        const repro_bnode *node = b->nodes + index;
        int64_t code = o->count[REPRO_OUT_ROWS];
        int32_t fields[REPRO_NODE_FIELDS] = {0};
        int32_t arm[2];

        fields[0] = node->kind;
        fields[2] = (int32_t)code;
        if (node->kind == REPRO_NODE_CALL) {
            repro_row(o, node->pc, 1, 0, b->procs[node->callee].base);
            fields[1] = repro_write_procedure(b, o, node->callee, chain + 1);
        } else {
            fields[1] = (int32_t)repro_slot(o, node);
            fields[3] = (int32_t)code + 1;
            repro_row(o, node->pc, 1, 1, 0);
            repro_row(o, node->pc, 0, 1, 0);
            if (node->kind == REPRO_NODE_BRANCH) {
                fields[4] = (int32_t)code + 2;
                repro_row(o, node->join, 1, 0, 0);
            }
            repro_write_body(b, o, node->then_head, chain, arm);
            fields[5] = arm[0];
            fields[6] = arm[1];
            repro_write_body(b, o, node->else_head, chain, arm);
            fields[7] = arm[0];
            fields[8] = arm[1];
        }
        if (record < o->capacity[REPRO_OUT_RECORDS]) {
            int32_t f;

            for (f = 0; f < REPRO_NODE_FIELDS; f++)
                o->nodes[REPRO_NODE_FIELDS * record + f] = fields[f];
        }
        record++;
    }
    range[0] = (int32_t)first;
    range[1] = (int32_t)(first + length);
}

/* cfg._compile's procedure(): written once, on first reference. */
static int32_t repro_write_procedure(repro_builder *b, repro_output *o,
                                     int32_t built, int32_t chain)
{
    repro_bproc *proc = b->procs + built;
    int64_t at;
    int32_t range[2];

    if (proc->number >= 0)
        return proc->number;
    if (chain > REPRO_MAX_CALL_CHAIN) {
        o->failed = 1;
        return 0;
    }
    proc->number = (int32_t)o->count[REPRO_OUT_PROCEDURES]++;
    repro_write_body(b, o, proc->head, chain, range);
    repro_row(o, proc->return_pc, 1, 0, 0);
    at = proc->number;
    if (at < o->capacity[REPRO_OUT_PROCEDURES]) {
        o->procs[3 * at] = range[0];
        o->procs[3 * at + 1] = range[1];
        o->procs[3 * at + 2] = (int32_t)(o->count[REPRO_OUT_ROWS] - 1);
    }
    return proc->number;
}

/* Build a program and write its compiled arrays (cfg._Compiled).
 *
 *   mt_words, mt_index  the twister state random.Random(seed) starts
 *                       from (getstate()[1])
 *   procedures          ProgramConfig.procedures, at least 1
 *   per_procedure       each procedure's static-branch budget,
 *                       max(1, static_branches // procedures)
 *   base_address, max_nesting, block_low, block_high
 *                       as ProgramConfig has them
 *   fanout              max(1, call_fanout), at most `procedures`
 *   cum_weights         the mix's five cumulative weights, the last one
 *                       positive (random.choices' cum_weights)
 *   bias_strength, hard_fraction, correlated_bits, correlated_noise
 *                       as BehaviorMix has them
 *   lambd               1.0 / BehaviorMix.loop_trip_mean
 *   nodes .. blob       the outputs: records (9 int32 each),
 *                       procedures (3 int32 each), the event table's
 *                       four columns, the slots' kinds, ints and floats
 *                       (two each) and the blob bytes
 *   sizes               int64[5]: on entry the outputs' capacities, in
 *                       records, procedures, rows, slots and bytes; on
 *                       return the sizes the program needs
 *
 * Returns 0 when everything was written, 1 when some output was too
 * small (nothing is written past any capacity; call again with
 * `sizes` as returned), or -1 for inputs outside the port's domain. */
int64_t repro_build_program(const uint32_t *mt_words, int32_t mt_index,
                            int32_t procedures, int64_t per_procedure,
                            uint64_t base_address, int64_t max_nesting,
                            int32_t fanout, int64_t block_low,
                            int64_t block_high, const double *cum_weights,
                            double bias_strength, double hard_fraction,
                            double lambd, int32_t correlated_bits,
                            double correlated_noise, int32_t *nodes,
                            int32_t *procs, uint64_t *pcs, uint8_t *takens,
                            uint8_t *conditionals, uint64_t *targets,
                            int32_t *kinds, int64_t *ints, double *floats,
                            uint8_t *blob, int64_t *sizes)
{
    repro_builder b;
    repro_output o;
    int32_t i, main = procedures - 1;
    int64_t result = -1;

    if (mt_index < 0 || mt_index > REPRO_MT_N || procedures < 1
        || per_procedure < 1 || fanout < 1 || fanout > procedures
        || block_low < 0 || block_low > block_high
        || block_high >= (INT64_C(1) << 32) || max_nesting < 0
        || correlated_bits < 2
        || correlated_bits > REPRO_MAX_CORRELATED_BITS
        || !(cum_weights[4] > 0.0))
        return -1;
    for (i = 0; i < 5; i++)
        if (sizes[i] < 0)
            return -1;

    memset(&b, 0, sizeof(b));
    for (i = 0; i < REPRO_MT_N; i++)
        b.mt.words[i] = mt_words[i];
    b.mt.index = mt_index;
    b.address = base_address;
    b.block_low = block_low;
    b.block_high = block_high;
    b.max_nesting = max_nesting;
    b.fanout = fanout;
    b.cum_weights = cum_weights;
    b.bias_strength = bias_strength;
    b.hard_fraction = hard_fraction;
    b.lambd = lambd;
    b.correlated_bits = correlated_bits;
    b.correlated_noise = correlated_noise;
    b.procs = calloc((size_t)procedures, sizeof(*b.procs));
    b.pool = malloc((size_t)procedures * sizeof(int32_t));
    b.site = malloc((size_t)procedures * sizeof(int32_t));
    b.affordable = malloc((size_t)procedures * sizeof(int32_t));
    b.marks = calloc((size_t)procedures, 1);
    if (!b.procs || !b.pool || !b.site || !b.affordable || !b.marks)
        goto done;

    /* _Builder.build: leaf procedures first, so every call target
     * exists; procedure `built` may call those built before it. */
    for (i = 0; i < main && !b.failed; i++)
        repro_build_procedure(&b, i, per_procedure);
    if (!b.failed)
        repro_build_main(&b, main);
    if (b.failed)
        goto done;

    memset(&o, 0, sizeof(o));
    o.nodes = nodes;
    o.procs = procs;
    o.pcs = pcs;
    o.takens = takens;
    o.conditionals = conditionals;
    o.targets = targets;
    o.kinds = kinds;
    o.ints = ints;
    o.floats = floats;
    o.blob = blob;
    for (i = 0; i < 5; i++)
        o.capacity[i] = sizes[i];
    for (i = 0; i < procedures; i++)
        b.procs[i].number = -1;
    repro_write_procedure(&b, &o, main, 0);
    if (o.failed || o.count[REPRO_OUT_ROWS] > INT32_MAX
        || o.count[REPRO_OUT_SLOTS] > INT32_MAX)
        goto done;
    result = 0;
    for (i = 0; i < 5; i++) {
        result |= o.count[i] > sizes[i];
        sizes[i] = o.count[i];
    }

done:
    free(b.nodes);
    free(b.procs);
    free(b.pool);
    free(b.site);
    free(b.affordable);
    free(b.marks);
    return result;
}
