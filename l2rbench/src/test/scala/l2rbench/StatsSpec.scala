package l2rbench

import org.scalatest.funsuite.AnyFunSuite

class StatsSpec extends AnyFunSuite {

  test("p99 needs 1,000 samples and then has exactly 10 beyond it") {
    assert(Stats.minSamples(99) == 1000)
    assert(Stats.beyond(1000, 99) == 10)
    assert(!Stats.supported(999, 99))
    assert(Stats.minSamples(50) == 20)
  }

  test("every supported percentile has at least 10 samples beyond it") {
    for (n <- 1 to 3000; pct <- Seq(50, 90, 95, 99) if Stats.supported(n, pct)) {
      assert(Stats.beyond(n, pct) >= Stats.MinBeyond, s"n=$n pct=$pct")
      assert(Stats.rank(n, pct) >= (pct * n) / 100 - 1, s"n=$n pct=$pct")
    }
  }

  test("percentile is nearest-rank over the sorted samples") {
    val xs = scala.util.Random.shuffle((1 to 1000).map(_.toDouble)).toArray
    assert(Stats.percentile(xs, 99) == 990.0)
    assert(Stats.percentile(xs, 50) == 500.0)
    assert(Stats.percentile(xs.take(999), 99) == Stats.Unsupported)
    assert(Stats.percentile(Array.empty[Double], 50) == Stats.Unsupported)
  }

  test("blocks cover every sample once, and each block supports its own p50") {
    for (n <- Seq(1000, 1249, 1250, 3500, 9297)) {
      val bs = Stats.blocks(n, Served.Block)
      assert(bs.flatten == (0 until n))
      assert(bs.forall(b => b.size >= Served.Block && Stats.supported(b.size, 50)), s"n=$n")
    }
    assert(Stats.blocks(10, 1000) == Seq(0 until 10))
  }

  test("blocks of a loop routed in rounds stay within their round, and qps counts from the round's start") {
    val n = 1000
    val starts = Seq(0 -> 0L, 300 -> 10000000000L, 900 -> 20000000000L)
    // query i completes 1 ms after the previous one, or 1 ms after its round started
    val end = new Array[Long](n)
    for (i <- 0 until n) end(i) = (if (starts.exists(_._1 == i)) starts.find(_._1 == i).get._2 else end(i - 1)) + 1000000L
    val s = Served(IndexedSeq.fill(n)(Query(0, 1, Vector(0, 1))), new Array[Long](n), Array.fill(n)(None),
      starts, end, 0.0, 0L, Array.empty, Array.empty, Array.empty)
    assert(s.blocks == Seq(0 until 300, 300 until 550, 550 until 900, 900 until 1000))
    s.blocks.foreach(b => assert(math.abs(s.qps(b) - 1000.0) < 1e-6, b))
  }

  test("median of odd and even sizes") {
    assert(Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0)
    assert(Stats.median(Seq(4.0, 1.0, 3.0, 2.0)) == 2.5)
  }
}
