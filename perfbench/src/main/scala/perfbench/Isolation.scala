package perfbench

import repro.core._
import repro.mpi.{MpiContext, MpiRuntime}
import repro.plans.{PlanPieces, Workloads}

/** The paper's isolated-phase "model" series (§5.1.2): each kernel alone on
  * one thread over one rank's share of the `join` or `groupby` input, fed by
  * a [[VectorSource]], and each substrate verb alone on a 4-rank runtime.
  */
object Isolation {
  /** Wall time given to each kernel or verb after its warm-up. */
  val BudgetNs = 100_000_000L

  private def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  /** Drain through open/next/close without collecting the output. */
  private def count(op: SubOp): Long = {
    op.open()
    var n = 0L
    while (op.next() != null) n += 1
    op.close()
    n
  }

  /** Call `f` twice to warm up, then repeatedly for [[BudgetNs]] (at least
    * three times); returns the median of the values `f` reports.
    */
  private def medianOf(f: => Double): Double = {
    f; f
    val xs = Vector.newBuilder[Double]
    val end = System.nanoTime() + BudgetNs
    var reps = 0
    while (reps < 3 || System.nanoTime() < end) { xs += f; reps += 1 }
    median(xs.result())
  }

  private def wallNs(f: => Unit): Double = {
    val t0 = System.nanoTime()
    f
    (System.nanoTime() - t0).toDouble
  }

  private def allocB(f: => Unit): Double = {
    val a0 = Jvm.threadAllocatedBytes
    f
    (Jvm.threadAllocatedBytes - a0).toDouble
  }

  def kernels(seed: Long): Map[String, Double] = {
    val cfg = Cluster.cfg(compress = true)
    val rShare = Workloads.shard(
      Workloads.densePairs(JoinWorkload.Rows, 1, Cluster.seed(seed, 1)), Cluster.Ranks)(0)
    val sShare = Workloads.shard(
      Workloads.densePairs(JoinWorkload.Rows, 1, Cluster.seed(seed, 2)), Cluster.Ranks)(0)
    val gShare = Workloads.shard(
      Workloads.densePairs(GroupByWorkload.Rows, GroupByWorkload.Dup, Cluster.seed(seed, 1)),
      Cluster.Ranks)(0)
    val pt = Workloads.PairType
    val part = PlanPieces.netPartOf(cfg)
    val fan = cfg.netFan

    def tput(tuples: Long, ns: Double): Double = tuples / ns * 1e3 // Mtuples/s

    def histogram = new LocalHistogram(new VectorSource(rShare, pt), fan, part)
    def partitioning = new LocalPartitioning(new VectorSource(rShare, pt), histogram, fan, part)
    def buildProbe = new BuildProbe(
      new VectorSource(rShare, Workloads.pairTypeNamed("rv")),
      new VectorSource(sShare, Workloads.pairTypeNamed("sv")), Seq("k"))
    def reduceByKey = new ReduceByKey(new VectorSource(gShare, pt), "k", PlanPieces.sumLongValue)

    val lhNs = medianOf(wallNs(count(histogram)))
    val lpNs = medianOf(wallNs(count(partitioning)))
    val bpNs = medianOf(wallNs(count(buildProbe)))
    val bpAlloc = medianOf(allocB(count(buildProbe)))
    val rbkNs = medianOf(wallNs(count(reduceByKey)))
    val rbkAlloc = medianOf(allocB(count(reduceByKey)))

    val bpTuples = rShare.length + sShare.length
    Map(
      "core.LocalHistogram.mtuples_per_s" -> tput(rShare.length, lhNs),
      "core.LocalPartitioning.mtuples_per_s" -> tput(rShare.length, lpNs),
      "core.BuildProbe.mtuples_per_s" -> tput(bpTuples, bpNs),
      "core.ReduceByKey.mtuples_per_s" -> tput(gShare.length, rbkNs),
      "core.BuildProbe.alloc_b_per_tuple" -> bpAlloc / bpTuples,
      "core.ReduceByKey.alloc_b_per_tuple" -> rbkAlloc / gShare.length,
    )
  }

  /** Per-call cost of a verb: `calls` calls on every rank of one run. */
  private def perCallUs(calls: Int)(verb: MpiContext => Unit): Double = {
    val rt = new MpiRuntime(Cluster.Ranks, Cluster.Net)
    medianOf(wallNs(rt.run { ctx => var i = 0; while (i < calls) { verb(ctx); i += 1 } })) /
      calls / 1e3
  }

  def substrate(): Map[String, Double] = {
    val launchUs = medianOf(wallNs(new MpiRuntime(Cluster.Ranks, Cluster.Net).run(_.rank))) / 1e3
    val allreduceUs = perCallUs(200)(_.allReduceSum(new Array[Long](32)))
    val fenceUs = {
      val rt = new MpiRuntime(Cluster.Ranks, Cluster.Net)
      medianOf(wallNs(rt.run { ctx =>
        val win = ctx.winCreate(1)
        var i = 0
        while (i < 200) { ctx.fence(win); i += 1 }
      })) / 200 / 1e3
    }

    // Each rank puts `perTarget` batches of `batch` rows to every rank; the
    // rate counts only the put loops (the slowest rank's), not the fence
    // that pays the simulated wire time.
    val batch = 1024
    val perTarget = 32
    val n = Cluster.Ranks
    val rowsPerRank = n * perTarget * batch
    val rt = new MpiRuntime(n, Cluster.Net)
    val putNs = medianOf(rt.run { ctx =>
      val win = ctx.winCreate(rowsPerRank)
      val rows = Array.fill[Array[Any]](batch)(Array[Any](1L))
      ctx.barrier()
      val t0 = System.nanoTime()
      var j = 0
      while (j < perTarget) {
        var t = 0
        while (t < n) {
          ctx.put(win, t, (ctx.rank * perTarget + j) * batch, rows, batch, batch * 8L)
          t += 1
        }
        j += 1
      }
      val ns = System.nanoTime() - t0
      ctx.fence(win)
      ns
    }.max.toDouble)
    Map(
      "mpi.launch_us" -> launchUs,
      "mpi.allreduce_us" -> allreduceUs,
      "mpi.fence_us" -> fenceUs,
      "mpi.put_mrows_per_s" -> n.toDouble * rowsPerRank / putNs * 1e3,
    )
  }
}
