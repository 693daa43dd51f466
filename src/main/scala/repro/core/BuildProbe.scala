package repro.core

import scala.collection.mutable.ArrayBuffer

/** Join variants. The paper's extensibility claim (§5.1.1) is that new join
  * types only require modifying this one operator (103 SLOC in the paper's
  * Table 1) — we implement inner, semi, anti, and (probe-preserving) outer
  * to substantiate it.
  * Semi/anti/outer preserve the probe side.
  */
sealed trait JoinKind
object JoinKind {
  case object Inner extends JoinKind
  case object Semi  extends JoinKind
  case object Anti  extends JoinKind
  case object Outer extends JoinKind
}

/** BuildProbe (paper §3.3.2): hash join of the build (left) and probe (right)
  * upstreams on a set of identically named join attributes. Inner/outer
  * output = join attributes + remaining build fields + remaining probe fields
  * (names must be distinct); semi/anti output = the unmodified probe tuple.
  *
  * SQL null semantics: a null in any join attribute never matches (and such
  * probe tuples are kept by Anti/Outer), so results agree with DuckDB.
  *
  * The build tuples are indexed by the shared [[HashIndex]] on the combined
  * `##` of their join attributes, which compare one by one with `==` (the
  * cooperative equality of a `HashMap[Any]` key).
  */
final class BuildProbe(
    build: SubOp,
    probe: SubOp,
    joinAttrs: Seq[String],
    kind: JoinKind = JoinKind.Inner,
) extends SubOp {
  require(joinAttrs.nonEmpty, "BuildProbe needs at least one join attribute")

  private val bType = build.outType
  private val pType = probe.outType
  private val bKeyIdx  = joinAttrs.map(bType.indexOf).toArray
  private val pKeyIdx  = joinAttrs.map(pType.indexOf).toArray
  private val bRestIdx = bType.fieldNames.zipWithIndex
    .collect { case (n, i) if !joinAttrs.contains(n) => i }.toArray
  private val pRestIdx = pType.fieldNames.zipWithIndex
    .collect { case (n, i) if !joinAttrs.contains(n) => i }.toArray

  override val outType: TupleType = kind match {
    case JoinKind.Semi | JoinKind.Anti => pType
    case _ =>
      bType.project(joinAttrs) ++
        bType.without(joinAttrs.toSet) ++
        pType.without(joinAttrs.toSet)
  }

  private var rows: ArrayBuffer[Array[Any]] = _ // build tuples with non-null keys, by entry id
  private var index: HashIndex = _
  private var pCur: Array[Any] = _
  private var m = -1 // next build entry matching pCur, or -1

  private def hasNullKey(t: Array[Any], idx: Array[Int]): Boolean = {
    var i = 0
    while (i < idx.length) { if (t(idx(i)) == null) return true; i += 1 }
    false
  }

  private def hashOf(t: Array[Any], idx: Array[Int]): Int = {
    var h = 0
    var i = 0
    while (i < idx.length) { h = 31 * h + t(idx(i)).##; i += 1 }
    h
  }

  /** The first entry from `start` on whose join attributes all `==` pCur's, or -1. */
  private def matchFrom(start: Int): Int = {
    var e = start
    while (e >= 0) {
      val bt = rows(e)
      var i = 0
      while (i < bKeyIdx.length && bt(bKeyIdx(i)) == pCur(pKeyIdx(i))) i += 1
      if (i == bKeyIdx.length) return e
      e = index.next(e)
    }
    -1
  }

  override def open(): Unit = {
    rows = new ArrayBuffer[Array[Any]]()
    index = new HashIndex()
    build.open()
    var t = build.next()
    while (t != null) {
      if (!hasNullKey(t, bKeyIdx)) { index.add(hashOf(t, bKeyIdx)); rows += t }
      t = build.next()
    }
    build.close()
    probe.open()
    pCur = null
    m = -1
  }

  private def emit(bt: Array[Any], pt: Array[Any]): Array[Any] = {
    val out = new Array[Any](joinAttrs.size + bRestIdx.length + pRestIdx.length)
    var o = 0
    var i = 0
    while (i < bKeyIdx.length)  { out(o) = if (bt != null) bt(bKeyIdx(i)) else pt(pKeyIdx(i)); o += 1; i += 1 }
    i = 0
    while (i < bRestIdx.length) { out(o) = if (bt != null) bt(bRestIdx(i)) else null; o += 1; i += 1 }
    i = 0
    while (i < pRestIdx.length) { out(o) = pt(pRestIdx(i)); o += 1; i += 1 }
    out
  }

  override def next(): Array[Any] = {
    while (true) {
      if (m >= 0) {
        val bt = rows(m)
        m = matchFrom(index.next(m))
        return emit(bt, pCur)
      }
      pCur = probe.next()
      if (pCur == null) return null
      val hit = if (hasNullKey(pCur, pKeyIdx)) -1 else matchFrom(index.first(hashOf(pCur, pKeyIdx)))
      kind match {
        case JoinKind.Inner => m = hit
        case JoinKind.Semi  => if (hit >= 0) return pCur
        case JoinKind.Anti  => if (hit < 0) return pCur
        case JoinKind.Outer => if (hit >= 0) m = hit else return emit(null, pCur)
      }
    }
    null // unreachable
  }

  override def close(): Unit = {
    probe.close()
    rows = null
    index = null
  }
}
