package perfbench

import java.io.PrintWriter

import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal

/** The benchmark's JVM side: sets a workload up several times, runs its
  * verified ops in a closed loop with a single client for a fixed time, and
  * writes per-op samples (and, when traced, per-layer records and the
  * isolated kernel and substrate figures) as JSON for `run.py` to reduce.
  *
  * Usage: `perfbench.Main --workload W --seed N --seconds S --trace 0|1
  * --out FILE`.
  */
object Main {
  /** Steps measured even when the time is up, so a median always exists. */
  val MinSteps = 3
  /** Set-ups per run; `setup_s` reports their median. */
  val SetupReps = 5

  private val Phases = Seq("localHistogram", "globalHistogram", "networkPartition",
    "localPartition", "buildProbe", "aggregate")

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) => k.stripPrefix("--") -> v }.toMap
    val workload = WorkloadSet.byName(opts("workload"))
    val result = run(workload, opts("seed").toLong, opts("seconds").toDouble, opts("trace") == "1")
    val w = new PrintWriter(opts("out"), "UTF-8")
    try w.println(Json.render(result)) finally w.close()
    // Do not wait for any thread the program's runtimes left behind.
    System.exit(0)
  }

  private def safeRun(op: Op, traced: Boolean): Outcome =
    try op.run(traced)
    catch { case NonFatal(e) => Outcome(ok = false, s"${op.name} threw $e", None) }

  /** Flat per-layer figures of one traced op. */
  private def layers(t: Trace): Map[String, Double] = {
    val c = t.counters
    val cross = c.bytesCross.toDouble
    val local = c.bytesLocal.toDouble
    Map(
      "plans.build_ms" -> t.buildNs / 1e6,
      "mpi.run_ms" -> t.runNs / 1e6,
      "core.driver_drain_ms" -> t.drainNs / 1e6,
    ) ++ Phases.map(p => s"phase.${p}_ms" -> c.criticalPhaseNs(p) / 1e6) ++ Map(
      "phase.critical_sum_ms" -> c.criticalSumNs / 1e6,
      "phase.unattributed_ms" -> (t.runNs - c.criticalSumNs) / 1e6,
      "mpi.bytes_cross" -> cross,
      "mpi.bytes_local" -> local,
      "mpi.msgs" -> c.msgs.toDouble,
      "mpi.sim_wire_ms" -> c.wireNs / 1e6,
      "mpi.cross_fraction" -> (if (cross + local > 0) cross / (cross + local) else 0.0),
      "mpi.rank_phase_skew" -> c.skew,
    )
  }

  /** Set when the critical-path rank's phase sum exceeds the run span. */
  private def unreconciled(t: Trace): Option[String] =
    if (t.counters.criticalSumNs <= t.runNs) None
    else Some(f"critical-path rank ${t.counters.criticalRank} phase sum " +
      f"${t.counters.criticalSumNs / 1e6}%.3f ms exceeds the run span ${t.runNs / 1e6}%.3f ms")

  def run(workload: Workload, seed: Long, seconds: Double, traced: Boolean): Map[String, Any] = {
    var attempted = 0
    val failures = ArrayBuffer.empty[String]
    // Attribution violations where the workload reports them instead of
    // failing the op (see Workload.attributionGated).
    val unattributed = ArrayBuffer.empty[String]
    val samples = ArrayBuffer.empty[Map[String, Any]]

    /** Runs one op; returns its wall time, which excludes the forced GC. */
    def attempt(op: Op, step: Int, traceThis: Boolean, timed: Boolean): Long = {
      val (out, cost) = OpCost.measure(safeRun(op, traceThis))
      attempted += 1
      val violation = out.trace.flatMap(unreconciled)
      val problems = (if (out.ok) None else Some(out.detail)) ++
        violation.filter(_ => workload.attributionGated)
      if (problems.nonEmpty) failures += s"${op.name} step $step: ${problems.mkString("; ")}"
      if (!workload.attributionGated) unattributed ++= violation.map(d => s"${op.name} step $step: $d")
      if (timed) samples += cost.toMap ++ Map(
        "op" -> op.name, "step" -> step, "traced" -> traceThis, "ok" -> problems.isEmpty,
        "layers" -> out.trace.map(layers).getOrElse(Map.empty))
      cost.wallNs
    }

    // Generate the inputs several times, each followed by one verified
    // step; a set-up is the generation plus that first step, with the
    // collections forced before each outside the timer. The reference
    // answers are computed once, from the first inputs, and timed apart.
    val setupNs = ArrayBuffer.empty[Long]
    val generateNs = ArrayBuffer.empty[Long]
    var referenceNs = 0L
    var want: Option[workload.Ref] = None
    var ops = Vector.empty[Op]
    for (rep <- 0 until SetupReps) {
      System.gc()
      val s0 = System.nanoTime()
      val in = workload.generate(seed, rep)
      generateNs += System.nanoTime() - s0
      if (want.isEmpty) {
        val r0 = System.nanoTime()
        want = Some(workload.reference(in))
        referenceNs = System.nanoTime() - r0
      }
      ops = workload.ops(in, want.get)
      setupNs += generateNs.last + ops.map(attempt(_, -1 - rep, traceThis = false, timed = false)).sum
    }
    val w0 = System.nanoTime()
    for (warm <- 0 until workload.warmSteps) {
      val order = if (warm % 2 == 0) ops else ops.reverse
      order.foreach(attempt(_, -100 - warm, traceThis = false, timed = false))
    }
    val warmupNs = System.nanoTime() - w0
    System.gc()
    val residentB = Jvm.heapUsedBytes

    // Closed loop, one client. Ops of a step alternate order (ABAB); a
    // traced run alternates traced and untraced steps.
    val deadline = System.nanoTime() + (seconds * 1e9).toLong
    var step = 0
    while (step < MinSteps * (if (traced) 2 else 1) || System.nanoTime() < deadline) {
      val pair = if (traced) step / 2 else step
      val order = if (pair % 2 == 0) ops else ops.reverse
      order.foreach(attempt(_, step, traceThis = traced && step % 2 == 0, timed = true))
      step += 1
    }

    val isolation =
      if (!traced) Map.empty[String, Double]
      else { System.gc(); Isolation.kernels(seed) ++ Isolation.substrate() }

    Map(
      "workload" -> workload.name,
      "seed" -> seed,
      "traced" -> traced,
      "fingerprint" -> (Jvm.fingerprint ++ Cluster.fingerprint ++ Map("sizes" -> workload.sizes)),
      "main_op" -> ops.head.name,
      "reference_s" -> referenceNs / 1e9,
      "warmup_s" -> warmupNs / 1e9,
      "setup_rep_s" -> setupNs.map(_ / 1e9),
      "generate_rep_s" -> generateNs.map(_ / 1e9),
      "resident_heap_b" -> residentB,
      "attempted" -> attempted,
      "failures" -> failures,
      "attribution_violations" -> unattributed,
      "samples" -> samples,
      "isolation" -> isolation,
    )
  }
}
