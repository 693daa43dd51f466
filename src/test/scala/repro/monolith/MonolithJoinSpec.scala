package repro.monolith

import org.scalatest.funsuite.AnyFunSuite

import repro.mpi.NetConfig
import repro.plans.{RadixJoinPlan, Workloads}
import repro.plans.PlanPieces.DistConfig
import repro.plans.RadixJoinPlan.JoinSpec

class MonolithJoinSpec extends AnyFunSuite {
  private val net =
    NetConfig(ranksPerMachine = 1, crossBytesPerSec = Long.MaxValue, msgLatencyNanos = 0)

  private def run(n: Int, nRanks: Int, dup: Int = 1): Seq[(Long, Long, Long)] = {
    val r = Workloads.densePairs(n, dup, seed = 21)
    val s = Workloads.densePairs(n, dup, seed = 22)
    val results = MonolithicRadixJoin.run(
      Workloads.shard(r, nRanks), Workloads.shard(s, nRanks),
      nRanks, net, netBits = 3, localBits = 2)
    val got = results.flatMap(_.rows).map(t =>
      (t(0).asInstanceOf[Long], t(1).asInstanceOf[Long], t(2).asInstanceOf[Long]))
    val exp = Workloads.referenceJoin(r.toSeq, s.toSeq)
    assert(got.groupBy(identity).view.mapValues(_.size).toMap == exp)
    got
  }

  test("monolithic join matches reference (1 rank)") {
    assert(run(64, 1).size == 64)
  }

  test("monolithic join matches reference (2 ranks)") {
    assert(run(128, 2).size == 128)
  }

  test("monolithic join matches reference (4 ranks)") {
    assert(run(256, 4).size == 256)
  }

  test("monolithic join with duplicates") {
    assert(run(128, 2, dup = 2).size == 256)
  }

  test("monolithic join does not match key-high bits with equal hashes") {
    // khi 5 and (2 << 32) | 7 have equal Long hash codes and the same
    // local partition bit, so they meet in one sub-partition's index.
    val (a, b) = (5L << 1, ((2L << 32) | 7L) << 1)
    val r = Array[Array[Any]](Array(a, 1L), Array(b, 3L))
    val s = Array[Array[Any]](Array(b, 2L))
    val rows = MonolithicRadixJoin.run(Vector(r.toIndexedSeq), Vector(s.toIndexedSeq), 1, net,
      netBits = 1, localBits = 1, pBits = 24).flatMap(_.rows)
    assert(rows.map(_.toSeq) == Seq(Seq(b, 3L, 2L)))
  }

  test("monolithic join records the same phase names as the modular plan") {
    val r = Workloads.densePairs(64, 1)
    val s = Workloads.densePairs(64, 1)
    val results = MonolithicRadixJoin.run(
      Workloads.shard(r, 2), Workloads.shard(s, 2), 2, net, 3, 2)
    val phases = results.flatMap(_.timer.phases).toSet
    assert(Set("localHistogram", "globalHistogram", "networkPartition",
      "localPartition", "buildProbe").subsetOf(phases))
  }

  test("monolithic and modular joins produce identical result multisets") {
    val nRanks = 4
    val n = 256
    val r = Workloads.densePairs(n, 2, seed = 31)
    val s = Workloads.densePairs(n, 2, seed = 32)
    val mono = MonolithicRadixJoin.run(
      Workloads.shard(r, nRanks), Workloads.shard(s, nRanks), nRanks, net, 3, 2)
      .flatMap(_.rows)
    val cfg = DistConfig(nRanks = nRanks, net = net, netBits = 3, localBits = 2)
    val (stream, _) = RadixJoinPlan.driver(
      Workloads.shard(r, nRanks), Workloads.shard(s, nRanks),
      Workloads.pairTypeNamed("rv"), Workloads.pairTypeNamed("sv"),
      JoinSpec(cfg))
    val mod = stream.drain()
    def canon(rows: Seq[Array[Any]]) =
      rows.map(_.toSeq).groupBy(identity).view.mapValues(_.size).toMap
    assert(canon(mono.toSeq) == canon(mod.toSeq))
  }

  test("monolithic join ships 8B compressed tuples") {
    val n = 256
    val r = Workloads.densePairs(n, 1)
    val s = Workloads.densePairs(n, 1)
    val results = MonolithicRadixJoin.run(
      Workloads.shard(r, 2), Workloads.shard(s, 2), 2, net, 3, 2)
    val bytes = results.map(x => x.stats.bytesCross + x.stats.bytesLocal).sum
    assert(bytes == 2L * n * 8)
  }
}
