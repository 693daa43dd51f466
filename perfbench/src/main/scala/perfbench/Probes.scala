package perfbench

import java.lang.management.ManagementFactory
import java.lang.reflect.{Field, Modifier}

import scala.jdk.CollectionConverters._

import repro.core.{SubOp, TupleType}
import repro.mpi.{MpiContext, NetStats, PhaseTimer}

/** Minimal JSON rendering for the result file (maps, sequences, numbers,
  * strings, booleans); the JVM side has no JSON library of its own.
  */
object Json {
  private def str(s: String): String = {
    val sb = new StringBuilder("\"")
    s.foreach {
      case '"'           => sb.append("\\\"")
      case '\\'          => sb.append("\\\\")
      case '\n'          => sb.append("\\n")
      case c if c < ' '  => sb.append(f"\\u${c.toInt}%04x")
      case c             => sb.append(c)
    }
    sb.append('"').toString
  }

  def render(v: Any): String = v match {
    case null                    => "null"
    case s: String               => str(s)
    case b: Boolean              => b.toString
    case d: Double               => if (d.isNaN || d.isInfinite) "null" else d.toString
    case n: Int                  => n.toString
    case n: Long                 => n.toString
    case m: scala.collection.Map[_, _] =>
      m.map { case (k, x) => str(k.toString) + ":" + render(x) }.mkString("{", ",", "}")
    case xs: Iterable[_]         => xs.map(render).mkString("[", ",", "]")
    case other                   => str(other.toString)
  }
}

/** Process-wide JVM counters read around each op: process CPU time (all
  * threads, including GC and JIT), heap bytes allocated by all threads
  * (exited rank threads included), and collector activity.
  */
object Jvm {
  private val os = ManagementFactory.getOperatingSystemMXBean
    .asInstanceOf[com.sun.management.OperatingSystemMXBean]
  private val threads = ManagementFactory.getThreadMXBean
    .asInstanceOf[com.sun.management.ThreadMXBean]
  private val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala.toVector

  def cpuNanos: Long = os.getProcessCpuTime
  def allocatedBytes: Long = threads.getTotalThreadAllocatedBytes
  def threadAllocatedBytes: Long = threads.getCurrentThreadAllocatedBytes
  def gcCount: Long = gcs.map(_.getCollectionCount).sum
  def gcMillis: Long = gcs.map(_.getCollectionTime).sum

  def heapUsedBytes: Long = ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed

  def fingerprint: Map[String, Any] = Map(
    "jdk" -> System.getProperty("java.vm.version"),
    "jvm_args" -> ManagementFactory.getRuntimeMXBean.getInputArguments.asScala.toVector
      .filterNot(_.startsWith("--add-opens")),
    "collectors" -> gcs.map(_.getName),
    "heap_max_mb" -> Runtime.getRuntime.maxMemory / (1 << 20),
    "available_processors" -> Runtime.getRuntime.availableProcessors,
  )
}

/** Wall, CPU, allocation and collector deltas of one op. The collection
  * forced before the op is outside the window, so GC figures count only
  * collections the op itself triggered.
  */
final case class OpCost(wallNs: Long, cpuNs: Long, allocB: Long, gcMs: Long, gcCount: Long) {
  def toMap: Map[String, Any] = Map(
    "wall_ms" -> wallNs / 1e6, "cpu_ms" -> cpuNs / 1e6, "alloc_b" -> allocB,
    "gc_ms" -> gcMs, "gc_count" -> gcCount)
}

object OpCost {
  def measure[T](f: => T): (T, OpCost) = {
    System.gc()
    val gc0 = Jvm.gcCount; val gcT0 = Jvm.gcMillis
    val a0 = Jvm.allocatedBytes; val c0 = Jvm.cpuNanos; val t0 = System.nanoTime()
    val r = f
    val t1 = System.nanoTime(); val c1 = Jvm.cpuNanos; val a1 = Jvm.allocatedBytes
    (r, OpCost(t1 - t0, c1 - c0, a1 - a0, Jvm.gcMillis - gcT0, Jvm.gcCount - gc0))
  }
}

/** Row count plus an order-independent checksum of a result. Each row is
  * hashed with its fields in the order of their sorted names, so results
  * with the same columns in another order still compare equal.
  */
final case class Digest(rows: Long, sum: Long)

final class DigestAcc {
  private var rows = 0L
  private var sum = 0L

  def addLongs(vals: Array[Long]): Unit = {
    var h = 0x9e3779b97f4a7c15L
    var i = 0
    while (i < vals.length) { h = DigestAcc.mix(h ^ vals(i)); i += 1 }
    rows += 1
    sum += h
  }

  def add(t: Array[Any], perm: Array[Int]): Unit = {
    var h = 0x9e3779b97f4a7c15L
    var i = 0
    while (i < perm.length) { h = DigestAcc.mix(h ^ t(perm(i)).asInstanceOf[Long]); i += 1 }
    rows += 1
    sum += h
  }

  def result: Digest = Digest(rows, sum)
}

object DigestAcc {
  def mix(x: Long): Long = {
    var z = x
    z = (z ^ (z >>> 33)) * 0xff51afd7ed558ccdL
    z = (z ^ (z >>> 33)) * 0xc4ceb9fe1a85ec53L
    z ^ (z >>> 33)
  }

  /** Field positions of `t` in sorted-name order. */
  def sortedPerm(t: TupleType): Array[Int] =
    t.fieldNames.zipWithIndex.sortBy(_._1).map(_._2).toArray

  /** Drain `stream` through open/next/close into a digest. */
  def drain(stream: SubOp): Digest = {
    val perm = sortedPerm(stream.outType)
    val acc = new DigestAcc
    stream.open()
    var t = stream.next()
    while (t != null) { acc.add(t, perm); t = stream.next() }
    stream.close()
    acc.result
  }
}

/** Per-layer counters of one traced op, read from the program's own
  * [[PhaseTimer]]s and [[NetStats]] after the op has finished.
  */
final case class RankCounters(phases: Vector[Map[String, Long]], stats: Vector[NetStats]) {
  private def sums: Vector[Long] = phases.map(_.values.sum)

  /** The rank with the largest phase sum: the ranks wait for each other at
    * every collective, so this rank's phases are the ones that block.
    */
  def criticalRank: Int = sums.zipWithIndex.maxBy(_._1)._2
  def criticalSumNs: Long = sums(criticalRank)
  def criticalPhaseNs(phase: String): Long = phases(criticalRank).getOrElse(phase, 0L)

  def skew: Double = {
    val s = sums
    if (s.min <= 0) 0.0 else s.max.toDouble / s.min
  }

  def bytesCross: Long = stats.map(_.bytesCross).sum
  def bytesLocal: Long = stats.map(_.bytesLocal).sum
  def msgs: Long = stats.map(_.msgs).sum
  def wireNs: Long = stats.map(_.simulatedWireNanos).sum
}

object RankCounters {
  def of(ctxs: Seq[MpiContext]): RankCounters =
    RankCounters(ctxs.map(_.timer.snapshot).toVector, ctxs.map(_.stats).toVector)

  def ofTimers(timers: Seq[PhaseTimer], stats: Seq[NetStats]): RankCounters =
    RankCounters(timers.map(_.snapshot).toVector, stats.toVector)
}

/** Wraps an operator and records the wall time of its `open()`; the
  * driver-level plans call the executor's open from their own open, so
  * this is the span in which the ranks run.
  */
final class OpenTimer(up: SubOp) extends SubOp {
  override val outType: TupleType = up.outType
  var openNs = 0L
  override def open(): Unit = {
    val t0 = System.nanoTime()
    up.open()
    openNs = System.nanoTime() - t0
  }
  override def next(): Array[Any] = up.next()
  override def close(): Unit = up.close()
}

/** Structural comparison of two driver-level operator chains, each ending
  * in its own executor leaf. Two chains match when every level has the
  * same operator class and the same non-operator fields (key names,
  * combine functions, types), compared before either chain is opened.
  */
object PlanShape {
  private def fields(c: Class[_]): Seq[Field] =
    Iterator.iterate[Class[_]](c)(_.getSuperclass).takeWhile(_ != null)
      .flatMap(_.getDeclaredFields).filterNot(f => Modifier.isStatic(f.getModifiers)).toSeq

  /** The first difference between `got`, which ends in `exec`, and
    * `mine`, which ends in `leaf`; None when they match.
    */
  def diff(got: AnyRef, exec: AnyRef, mine: AnyRef, leaf: AnyRef, path: String = "plan"): Option[String] =
    if ((got eq exec) || (mine eq leaf))
      if ((got eq exec) && (mine eq leaf)) None
      else Some(s"$path: ${got.getClass.getName} against ${mine.getClass.getName}, only one is the executor")
    else if (got.getClass != mine.getClass)
      Some(s"$path: ${got.getClass.getName} against ${mine.getClass.getName}")
    else fields(got.getClass).iterator.map { f =>
      f.setAccessible(true)
      (f.get(got), f.get(mine)) match {
        case (a: SubOp, b: SubOp) => diff(a, exec, b, leaf, s"$path.${f.getName}")
        case (a, b) if a == b     => None
        case (a, b)               => Some(s"$path.${f.getName}: $a against $b")
      }
    }.collectFirst { case Some(d) => d }
}
