package l2rbench

/** Order statistics under the benchmark's percentile rule: a percentile is
  * reported only when at least [[Stats.MinBeyond]] samples lie beyond it,
  * so p99 needs ≥ 1,000 samples and p50 needs ≥ 20.
  */
object Stats {

  val MinBeyond: Int = 10

  /** Written in place of a percentile that too few samples support. */
  val Unsupported: Double = -1.0

  /** 0-based nearest-rank index of the `pct`-th percentile of `n` samples:
    * ⌈pct·n/100⌉ − 1, in integer arithmetic so that p99 of 1,000 samples is
    * exactly rank 989.
    */
  def rank(n: Int, pct: Int): Int = {
    require(n > 0 && pct > 0 && pct <= 100, s"rank($n, $pct)")
    ((pct.toLong * n + 99) / 100 - 1).toInt
  }

  /** Samples strictly beyond the `pct`-th percentile of `n` samples. */
  def beyond(n: Int, pct: Int): Int = n - 1 - rank(n, pct)

  def supported(n: Int, pct: Int): Boolean = n > 0 && beyond(n, pct) >= MinBeyond

  /** The fewest samples that support the `pct`-th percentile. */
  def minSamples(pct: Int): Int = Iterator.from(1).find(supported(_, pct)).get

  /** The `pct`-th percentile of unsorted `xs`, or [[Unsupported]]. */
  def percentile(xs: Array[Double], pct: Int): Double =
    if (!supported(xs.length, pct)) Unsupported
    else xs.sorted.apply(rank(xs.length, pct))

  /** `n` samples cut into consecutive blocks of `size`; the last block
    * takes the remainder, so every block has at least `size` samples when
    * `n >= size`.
    */
  def blocks(n: Int, size: Int): Seq[Range] = {
    val k = math.max(1, n / size)
    (0 until k).map(b => b * size until (if (b == k - 1) n else (b + 1) * size))
  }

  /** Conventional median (mean of the two middle values for even sizes). */
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of nothing")
    val s = xs.sorted; val m = s.length / 2
    if (s.length % 2 == 1) s(m) else (s(m - 1) + s(m)) / 2
  }
}
