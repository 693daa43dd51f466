package perfbench

import scala.collection.mutable

import repro.bench.BenchUtil
import repro.core._
import repro.monolith.MonolithicRadixJoin
import repro.mpi.MpiExecutor
import repro.plans._
import repro.plans.PlanPieces.DistConfig
import repro.plans.RadixJoinPlan.JoinSpec

/** The layer record of one traced op. `buildNs`, `runNs` and `drainNs`
  * split the op into plan construction, the ranks' run inside the
  * executor's open, and the driver-side drain. `counters` are the ranks'
  * counters of that run, whose phases must fit in `runNs`.
  */
final case class Trace(buildNs: Long, runNs: Long, drainNs: Long, counters: RankCounters)

final case class Outcome(ok: Boolean, detail: String, trace: Option[Trace])

object Outcome {
  def check(got: Digest, want: Digest, trace: Option[Trace]): Outcome =
    if (got == want) Outcome(ok = true, "", trace)
    else Outcome(ok = false, s"digest $got, expected $want", trace)
}

/** One verified operation: runs the program once and checks its output
  * against a reference computed at set-up.
  */
trait Op {
  def name: String
  def run(traced: Boolean): Outcome
}

/** A workload's set-up is split in two. `generate` makes the inputs from
  * the seed and is repeated, each time followed by one verified step that
  * is timed as part of the set-up; `reference` computes the expected
  * answers once, from the first inputs (every repetition generates the
  * same inputs).
  */
trait Workload {
  type In
  type Ref
  def name: String
  def sizes: Map[String, Any]
  /** Unmeasured steps between the last set-up and the measured loop: op
    * times keep falling for several steps while the JIT compiler catches
    * up, and short ops need more steps for that. A fixed count, so a
    * faster program never spends longer warming up.
    */
  def warmSteps: Int
  /** Whether a traced op whose critical-path phase sum exceeds the run
    * span counts as failed. Off only where the program's own phase timers
    * are known to overlap.
    */
  def attributionGated: Boolean = true
  def generate(seed: Long, rep: Int): In
  def reference(in: In): Ref
  /** The ops of one measured step; `join` has two, modular and monolith. */
  def ops(in: In, want: Ref): Vector[Op]
}

object Cluster {
  val Machines = 2
  val Ranks: Int = Machines * BenchUtil.RanksPerMachine
  val Net = BenchUtil.netFor(Machines)

  def cfg(compress: Boolean): DistConfig =
    DistConfig(nRanks = Ranks, net = Net, netBits = 5, localBits = 4, compress = compress)

  def fingerprint: Map[String, Any] = Map(
    "ranks" -> Ranks, "machines" -> Machines,
    "ranks_per_machine" -> Net.ranksPerMachine,
    "cross_bytes_per_s" -> Net.crossBytesPerSec,
    "msg_latency_ns" -> Net.msgLatencyNanos,
    "net_bits" -> cfg(true).netBits, "local_bits" -> cfg(true).localBits)

  /** Seeds of the generated relations, derived from the workload seed. */
  def seed(workloadSeed: Long, k: Int): Long = workloadSeed * 1000003L + k
}

object Reference {
  /** Field-1 values of ⟨long, long⟩ rows, grouped by field 0. */
  def byKey(rows: Array[Array[Any]]): mutable.LongMap[mutable.ArrayBuffer[Long]] = {
    val m = mutable.LongMap.empty[mutable.ArrayBuffer[Long]]
    rows.foreach(t => m.getOrElseUpdate(t(0).asInstanceOf[Long], mutable.ArrayBuffer.empty) +=
      t(1).asInstanceOf[Long])
    m
  }
}

/** Shared tail of the plan ops. An untraced op drains the driver's own
  * stream. A traced op rebuilds the same driver-level plan around a timed
  * executor, so the ranks' run can be told apart from the driver-side
  * drain. Every op first checks that the rebuilt plan has the driver's
  * shape, so the traced figures can never time a stale copy.
  */
object PlanOp {
  def finish(
      t0: Long,
      stream: SubOp,
      exec: MpiExecutor,
      traced: Boolean,
      want: Digest,
      driverPlan: SubOp => SubOp,
  ): Outcome = {
    val t1 = System.nanoTime()
    val timed = new OpenTimer(exec)
    val rebuilt = driverPlan(timed)
    PlanShape.diff(stream, exec, rebuilt, timed) match {
      case Some(d) => Outcome(ok = false, s"the traced plan differs from the driver's: $d", None)
      case None if !traced => Outcome.check(DigestAcc.drain(stream), want, None)
      case None =>
        val t2 = System.nanoTime()
        val got = DigestAcc.drain(rebuilt)
        val t3 = System.nanoTime()
        val counters = RankCounters.of(exec.lastRuntime.lastContexts)
        Outcome.check(got, want,
          Some(Trace(t1 - t0, timed.openNs, t3 - t2 - timed.openNs, counters)))
    }
  }
}

/** Fig 3/6 radix join of two dense 1:1 relations, modular plan and the
  * fused monolith on the same inputs.
  */
object JoinWorkload extends Workload {
  val name = "join"
  val Rows = 1_000_000
  def sizes: Map[String, Any] = Map("tuples_per_relation" -> Rows, "key_multiplicity" -> 1,
    "compress" -> true)
  val warmSteps = 2
  private val cfg = Cluster.cfg(compress = true)

  final case class In(rRows: Array[Array[Any]], sRows: Array[Array[Any]],
      r: Vector[RowVec], s: Vector[RowVec])
  type Ref = Digest

  def generate(seed: Long, rep: Int): In = {
    val rRows = Workloads.densePairs(Rows, 1, Cluster.seed(seed, 1))
    val sRows = Workloads.densePairs(Rows, 1, Cluster.seed(seed, 2))
    In(rRows, sRows, Workloads.shard(rRows, Cluster.Ranks), Workloads.shard(sRows, Cluster.Ranks))
  }

  /** The hash join of `Workloads.referenceJoin` (build on r, probe with
    * s, on field 0) over primitive maps: that one takes about 10 s at this
    * size, too long to pay on every run.
    */
  def reference(in: In): Digest = {
    val byKey = Reference.byKey(in.rRows)
    val acc = new DigestAcc
    in.sRows.foreach { t =>
      val k = t(0).asInstanceOf[Long]
      byKey.getOrElse(k, Nil).foreach(rv => acc.addLongs(Array(k, rv, t(1).asInstanceOf[Long])))
    }
    acc.result
  }

  def ops(in: In, want: Digest): Vector[Op] = {
    val r = in.r
    val s = in.s

    val modular = new Op {
      val name = "modular"
      def run(traced: Boolean): Outcome = {
        val t0 = System.nanoTime()
        val (stream, exec) = RadixJoinPlan.driver(
          r, s, Workloads.pairTypeNamed("rv"), Workloads.pairTypeNamed("sv"), JoinSpec(cfg))
        PlanOp.finish(t0, stream, exec, traced, want, new RowScan(_, "data"))
      }
    }
    val monolith = new Op {
      val name = "monolith"
      def run(traced: Boolean): Outcome = {
        val t0 = System.nanoTime()
        val results = MonolithicRadixJoin.run(r, s, cfg.nRanks, cfg.net, cfg.netBits, cfg.localBits)
        val t1 = System.nanoTime()
        val perm = DigestAcc.sortedPerm(MonolithicRadixJoin.OutType)
        val got = new DigestAcc
        results.foreach(_.rows.foreach(got.add(_, perm)))
        val trace =
          if (!traced) None
          else Some(Trace(0L, t1 - t0, System.nanoTime() - t1,
            RankCounters.ofTimers(results.map(_.timer), results.map(_.stats))))
        Outcome.check(got.result, want, trace)
      }
    }
    Vector(modular, monolith)
  }
}

/** Fig 5/7 GROUP BY (sum) with the driver-side merge, 4 values per key. */
object GroupByWorkload extends Workload {
  val name = "groupby"
  val Rows = 2_000_000
  val Dup = 4
  def sizes: Map[String, Any] = Map("tuples" -> Rows, "values_per_key" -> Dup,
    "compress" -> true, "merge_at_driver" -> true)
  val warmSteps = 3
  private val cfg = Cluster.cfg(compress = true)

  final case class In(rows: Array[Array[Any]], parts: Vector[RowVec])
  type Ref = Digest

  def generate(seed: Long, rep: Int): In = {
    val rows = Workloads.densePairs(Rows, Dup, Cluster.seed(seed, 1))
    In(rows, Workloads.shard(rows, Cluster.Ranks))
  }

  /** The per-key sums of `Workloads.referenceGroupSum` over a primitive
    * map, which is an order of magnitude faster at this size.
    */
  def reference(in: In): Digest = {
    val sums = mutable.LongMap.empty[Long]
    in.rows.foreach { t =>
      val k = t(0).asInstanceOf[Long]
      sums.update(k, sums.getOrElse(k, 0L) + t(1).asInstanceOf[Long])
    }
    val acc = new DigestAcc
    sums.foreach { case (k, v) => acc.addLongs(Array(k, v)) }
    acc.result
  }

  def ops(in: In, want: Digest): Vector[Op] = {
    val parts = in.parts
    val op = new Op {
      val name = "plan"
      def run(traced: Boolean): Outcome = {
        val t0 = System.nanoTime()
        val (stream, exec) = GroupByPlan.driver(parts, Workloads.PairType, cfg)
        PlanOp.finish(t0, stream, exec, traced, want,
          e => new ReduceByKey(new RowScan(e, "data"), "k", PlanPieces.sumLongValue))
      }
    }
    Vector(op)
  }
}

/** Fig 4/8 naive plan for a 2-join sequence on one attribute. */
object JoinSeqWorkload extends Workload {
  val name = "joinseq"
  val Rows = 500_000
  val Dup = 2
  val Relations = 3
  def sizes: Map[String, Any] = Map("tuples_per_relation" -> Rows, "relations" -> Relations,
    "values_per_key_first_two" -> Dup, "optimized" -> false)
  val warmSteps = 3
  /** The naive plan's second exchange times its `LocalHistogram` over a
    * `Shared` scan whose first open drains the whole first join, so the
    * first join's phases are counted twice; reported, not failed.
    */
  override val attributionGated = false
  private val cfg = Cluster.cfg(compress = true)

  final case class In(raw: Vector[Array[Array[Any]]], rels: Vector[Vector[RowVec]])
  type Ref = Digest

  def generate(seed: Long, rep: Int): In = {
    val raw = (0 until Relations).map(i =>
      Workloads.densePairs(Rows, if (i < 2) Dup else 1, Cluster.seed(seed, 10 + i))).toVector
    In(raw, raw.map(Workloads.shard(_, Cluster.Ranks)))
  }

  /** Reference 2-join rel0 ⋈ rel1 ⋈ rel2 on field 0, as ⟨k, v0, v1, v2⟩. */
  def reference(in: In): Digest = {
    val rels = in.raw
    val m0 = Reference.byKey(rels(0)); val m1 = Reference.byKey(rels(1))
    val acc = new DigestAcc
    rels(2).foreach { t =>
      val k = t(0).asInstanceOf[Long]
      for (v0 <- m0.getOrElse(k, Nil); v1 <- m1.getOrElse(k, Nil))
        acc.addLongs(Array(k, v0, v1, t(1).asInstanceOf[Long]))
    }
    acc.result
  }

  def ops(in: In, want: Digest): Vector[Op] = {
    val rels = in.rels
    val op = new Op {
      val name = "plan"
      def run(traced: Boolean): Outcome = {
        val t0 = System.nanoTime()
        val (stream, exec) = JoinSequencePlan.driver(rels, cfg, optimized = false)
        PlanOp.finish(t0, stream, exec, traced, want, new RowScan(_, "data"))
      }
    }
    Vector(op)
  }
}

object WorkloadSet {
  val All: Vector[Workload] = Vector(JoinWorkload, GroupByWorkload, JoinSeqWorkload)
  def byName(n: String): Workload =
    All.find(_.name == n).getOrElse(
      throw new IllegalArgumentException(s"unknown workload $n; expected one of ${All.map(_.name).mkString(", ")}"))
}
