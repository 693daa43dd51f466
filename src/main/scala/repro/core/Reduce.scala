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
  */
final class ReduceByKey(
    up: SubOp,
    keyField: String,
    f: (Array[Any], Array[Any]) => Array[Any], // combine of key-stripped value tuples
) extends SubOp {
  override val outType: TupleType = up.outType
  private val keyIdx = up.outType.indexOf(keyField)
  private val arity  = up.outType.arity

  // Groups in first-seen order: entry e of `index` is keys(e) with accs(e).
  private var keys: ArrayBuffer[Any] = _
  private var accs: ArrayBuffer[Array[Any]] = _
  private var pos = 0

  private def strip(t: Array[Any]): Array[Any] = {
    val v = new Array[Any](arity - 1)
    var i = 0; var o = 0
    while (i < arity) { if (i != keyIdx) { v(o) = t(i); o += 1 }; i += 1 }
    v
  }

  override def open(): Unit = {
    keys = new ArrayBuffer[Any]()
    accs = new ArrayBuffer[Array[Any]]()
    val index = new HashIndex()
    up.open()
    var t = up.next()
    while (t != null) {
      val k = t(keyIdx)
      val h = k.##
      var e = index.first(h)
      while (e >= 0 && keys(e) != k) e = index.next(e)
      if (e >= 0) accs(e) = f(accs(e), strip(t))
      else { index.add(h); keys += k; accs += strip(t) }
      t = up.next()
    }
    up.close()
    pos = 0
  }

  override def next(): Array[Any] =
    if (keys == null || pos >= keys.length) null
    else {
      val v = accs(pos)
      val out = new Array[Any](arity)
      var i = 0; var o = 0
      while (i < arity) {
        if (i == keyIdx) out(i) = keys(pos) else { out(i) = v(o); o += 1 }
        i += 1
      }
      pos += 1
      out
    }

  override def close(): Unit = { keys = null; accs = null }
}
