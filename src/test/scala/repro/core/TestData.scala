package repro.core

import scala.collection.mutable.ArrayBuffer

/** Small helpers shared by the core unit tests. */
object TestData {
  val PairT: TupleType = TupleType.of("k" -> Atom.LongA, "v" -> Atom.LongA)

  def pairs(kvs: (Long, Long)*): RowVec = {
    val b = new ArrayBuffer[Array[Any]]()
    kvs.foreach { case (k, v) => b += Array[Any](k, v) }
    b
  }

  def src(kvs: (Long, Long)*): SubOp = new VectorSource(pairs(kvs: _*), PairT)

  /** A histogram operator reporting `counts(b)` rows for bucket b. */
  def hist(counts: Long*): SubOp = new VectorSource(
    ArrayBuffer.from(counts.zipWithIndex.map { case (c, b) => Array[Any](b, c) }),
    TupleType.of("bucket" -> Atom.IntA, "count" -> Atom.LongA))

  def asPairs(rows: Seq[Array[Any]]): Seq[(Long, Long)] =
    rows.map(t => (t(0).asInstanceOf[Long], t(1).asInstanceOf[Long]))
}
