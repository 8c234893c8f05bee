/**
 * @file
 * Shared interval arithmetic for exposed-communication accounting.
 *
 * Both historical call sites — the overlap scheduler's aggregate
 * exposed-comm figure and PerfModel's per-category exposed breakdown —
 * used to re-derive comm-vs-compute overlaps with an O(comm x compute)
 * double loop each. They now share one linear sweep: comm intervals
 * are visited in ascending-start order and a cursor into the disjoint,
 * sorted compute-busy interval list only ever moves forward.
 *
 * Bitwise contract: for each query interval the intersection lengths
 * are accumulated in ascending cover order, exactly as the old
 * per-event loops did, so every produced double is bit-identical to
 * the quadratic implementation it replaces.
 */

#ifndef MADMAX_CORE_INTERVAL_SWEEP_HH
#define MADMAX_CORE_INTERVAL_SWEEP_HH

#include <cstddef>
#include <vector>

namespace madmax
{

/** Half-open interval [lo, hi) on the time axis. */
struct Interval
{
    double lo;
    double hi;
};

/** Merge overlapping intervals; input need not be sorted. */
std::vector<Interval> mergeIntervals(std::vector<Interval> in);

/**
 * mergeIntervals for input already sorted by ascending lo (e.g. the
 * busy intervals of a sequential stream), writing into a caller-owned
 * buffer — the allocation- and sort-free form the scheduling hot path
 * uses. Produces exactly the intervals mergeIntervals would.
 */
void mergeSortedIntervalsInto(const std::vector<Interval> &in,
                              std::vector<Interval> &out);

/**
 * The ascending-lo visit order coveredLengths uses (stable on ties),
 * written into a caller-owned buffer. Splitting the order out lets a
 * caller that sweeps the same query set against several covers (the
 * merged and raw compute intervals of one schedule) sort once.
 */
void sortedQueryOrder(const std::vector<Interval> &queries,
                      std::vector<std::size_t> &order);

/**
 * coveredLengths with the visit order precomputed and the output
 * written into a caller-owned buffer. Bit-identical to coveredLengths
 * on the same inputs. @p order must visit every query exactly once in
 * ascending-lo order — sortedQueryOrder's output, or any other
 * permutation with ascending lo (the per-query sums only depend on
 * the cover order, so ties may be visited in any order).
 */
void coveredLengthsInto(const std::vector<Interval> &cover,
                        const std::vector<Interval> &queries,
                        const std::vector<std::size_t> &order,
                        std::vector<double> &out);

/**
 * Two coveredLengthsInto sweeps fused into one pass over the shared
 * query visit order: @p outA is exactly coveredLengthsInto(coverA,
 * queries, order, outA) and @p outB exactly the coverB run, computed
 * with one traversal of @p order and one load of each query instead
 * of two. The scheduling hot path sweeps every comm interval against
 * both the merged and the raw compute-busy intervals this way.
 */
void coveredLengthsPairInto(const std::vector<Interval> &coverA,
                            const std::vector<Interval> &coverB,
                            const std::vector<Interval> &queries,
                            const std::vector<std::size_t> &order,
                            std::vector<double> &outA,
                            std::vector<double> &outB);

/**
 * Covered length of each query interval under @p cover.
 *
 * @param cover   Disjoint intervals sorted by ascending lo (e.g. the
 *                compute-busy intervals of a sequential stream, merged
 *                or not).
 * @param queries Arbitrary intervals; empty/inverted ones cover 0.
 * @return out[i] = total length of queries[i] intersected with the
 *         cover set, intersection terms added in ascending cover
 *         order.
 *
 * Complexity: O(Q log Q) for the ascending-start visit order plus a
 * forward-only cover cursor — linear in practice, where the old
 * per-query scan over the full cover list was O(Q x C) always.
 */
std::vector<double> coveredLengths(const std::vector<Interval> &cover,
                                   const std::vector<Interval> &queries);

} // namespace madmax

#endif // MADMAX_CORE_INTERVAL_SWEEP_HH
