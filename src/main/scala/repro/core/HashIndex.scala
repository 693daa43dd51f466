package repro.core

import java.util.Arrays

/** The hash-table kernel shared by [[BuildProbe]], [[ReduceByKey]] and the
  * monolithic join: a bucket-chained index over dense entry ids 0, 1, 2, …
  * in the style of the main-memory radix joins of Balkesen et al. (ICDE
  * 2013) and Barthels et al. (SIGMOD 2015). It holds only the chains: an Int
  * head per bucket, and an Int successor and the full hash per entry.
  * Callers keep the entries themselves, in id order, and compare keys; the
  * index hands out the ids whose stored hash equals the probe's, newest
  * first.
  *
  * The bucket is the high bits of a multiplicative hash. Inside one radix
  * sub-partition every key shares its low partition bits, so a bucket taken
  * from the low bits (as Scala's `HashMap` does) would leave most buckets
  * empty.
  *
  * @param expected entries to size for; the index doubles at load 0.75
  *   beyond it.
  */
final class HashIndex(expected: Int = 0) {
  import HashIndex._

  private var bits = bitsFor(expected)
  private var heads = emptyHeads(bits)
  private var succ = new Array[Int](capacityOf(bits))
  private var hashes = new Array[Int](capacityOf(bits))
  private var n = 0

  /** Add the next entry id (0, then 1, …) with hash `h`. */
  def add(h: Int): Unit = {
    if (n == succ.length) grow()
    link(n, h)
    hashes(n) = h
    n += 1
  }

  /** The newest entry whose hash is `h`, or -1. */
  def first(h: Int): Int = from(heads(bucketOf(h, bits)), h)

  /** The next older entry with the same hash as entry `e`, or -1. */
  def next(e: Int): Int = from(succ(e), hashes(e))

  private def from(start: Int, h: Int): Int = {
    var e = start
    while (e >= 0 && hashes(e) != h) e = succ(e)
    e
  }

  private def link(e: Int, h: Int): Unit = {
    val b = bucketOf(h, bits)
    succ(e) = heads(b)
    heads(b) = e
  }

  /** Double the buckets and relink every entry in id order, so each chain
    * stays newest first.
    */
  private def grow(): Unit = {
    bits += 1
    heads = emptyHeads(bits)
    succ = Arrays.copyOf(succ, capacityOf(bits))
    hashes = Arrays.copyOf(hashes, capacityOf(bits))
    var e = 0
    while (e < n) { link(e, hashes(e)); e += 1 }
  }
}

object HashIndex {
  private final val Golden = 0x9E3779B9 // 2^32 / golden ratio
  private final val MinBits = 4

  /** The bucket of hash `h` among 2^bits: the top bits of `h * Golden`. */
  private[core] def bucketOf(h: Int, bits: Int): Int = (h * Golden) >>> (32 - bits)

  /** Entries a table of 2^bits buckets holds at load 0.75. */
  private def capacityOf(bits: Int): Int = (1 << bits) - (1 << (bits - 2))

  private def bitsFor(expected: Int): Int = {
    var b = MinBits
    while (capacityOf(b) < expected) b += 1
    b
  }

  private def emptyHeads(bits: Int): Array[Int] = {
    val a = new Array[Int](1 << bits)
    Arrays.fill(a, -1)
    a
  }
}
