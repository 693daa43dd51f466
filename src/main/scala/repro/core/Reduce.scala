package repro.core

import scala.collection.mutable.ArrayBuffer

/** Reduce (paper §3.3.2): folds all upstream tuples into a single tuple with
  * an associative, commutative combine function. Emits nothing on empty
  * input.
  */
final class Reduce(up: SubOp, f: (Array[Any], Array[Any]) => Array[Any]) extends SubOp {
  override val outType: TupleType = up.outType
  private var result: Array[Any] = _
  private var emitted = false

  override def open(): Unit = {
    up.open()
    var acc = up.next()
    if (acc != null) {
      var t = up.next()
      while (t != null) { acc = f(acc, t); t = up.next() }
    }
    up.close()
    result = acc
    emitted = false
  }

  override def next(): Array[Any] =
    if (emitted || result == null) null
    else { emitted = true; result }

  override def close(): Unit = result = null
}

/** ReduceByKey (paper §3.3.2): combines all tuples with the same value in the
  * `keyField` into one. As in the paper, the key field is stripped from the
  * tuples passed to the combine function and re-attached (in the original
  * field position) before tuples are returned; the output type equals the
  * input type. Groups come out in the order their keys were first seen; a
  * null key forms its own group.
  *
  * A group allocates only what it needs. Its first tuple is kept as is and
  * supplies the key; the key-stripped accumulator is created when a second
  * tuple arrives; a group of one tuple is emitted as that input tuple, whose
  * values are what re-attaching the key would give. So the levels above the
  * first in a radix-partitioned GROUP BY, whose groups are all singletons,
  * pass their input through. Like BuildProbe's build side, ReduceByKey keeps
  * references to its input rows until it is closed.
  *
  * Combine contract: `f(acc, v)` may update and return `acc` or return a new
  * tuple, but must not keep `v` except by returning it. `v` is one buffer
  * that every later tuple of every group is stripped into.
  */
final class ReduceByKey(
    up: SubOp,
    keyField: String,
    f: (Array[Any], Array[Any]) => Array[Any], // combine of key-stripped value tuples
) extends SubOp {
  override val outType: TupleType = up.outType
  private val keyIdx = up.outType.indexOf(keyField)
  private val arity  = up.outType.arity

  // Groups in first-seen order: entry e of `index` is the group whose first
  // tuple is firsts(e); accs(e) stays null until the group's second tuple.
  private var firsts: ArrayBuffer[Array[Any]] = _
  private var accs: ArrayBuffer[Array[Any]] = _
  private var pos = 0

  /** Copy every field of `t` but the key into `v`. */
  private def strip(t: Array[Any], v: Array[Any]): Array[Any] = {
    var i = 0; var o = 0
    while (i < arity) { if (i != keyIdx) { v(o) = t(i); o += 1 }; i += 1 }
    v
  }

  override def open(): Unit = {
    firsts = new ArrayBuffer[Array[Any]]()
    accs = new ArrayBuffer[Array[Any]]()
    var scratch = new Array[Any](arity - 1)
    val index = new HashIndex()
    up.open()
    var t = up.next()
    while (t != null) {
      val k = t(keyIdx)
      val h = k.##
      var e = index.first(h)
      while (e >= 0 && firsts(e)(keyIdx) != k) e = index.next(e)
      if (e < 0) { index.add(h); firsts += t; accs += null }
      else {
        val acc = accs(e)
        val r = f(if (acc != null) acc else strip(firsts(e), new Array[Any](arity - 1)),
          strip(t, scratch))
        if (r eq scratch) scratch = new Array[Any](arity - 1)
        accs(e) = r
      }
      t = up.next()
    }
    up.close()
    pos = 0
  }

  override def next(): Array[Any] =
    if (firsts == null || pos >= firsts.length) null
    else {
      val first = firsts(pos)
      val v = accs(pos)
      pos += 1
      if (v == null) first
      else {
        val out = first.clone() // the key, in its field
        var i = 0; var o = 0
        while (i < arity) { if (i != keyIdx) { out(i) = v(o); o += 1 }; i += 1 }
        out
      }
    }

  override def close(): Unit = { firsts = null; accs = null }
}
