package repro.core

import org.scalatest.funsuite.AnyFunSuite

class HashIndexSpec extends AnyFunSuite {

  /** Every entry the index hands out for hash `h`, in chain order. */
  private def chain(ix: HashIndex, h: Int): Seq[Int] =
    Iterator.iterate(ix.first(h))(ix.next).takeWhile(_ >= 0).toSeq

  test("an empty index has no entries") {
    val ix = new HashIndex()
    assert(ix.first(0) == -1 && ix.first(5) == -1)
  }

  test("entries with equal hashes share a chain, newest first; the caller tells keys apart") {
    val a = 5L; val b = (1L << 32) | 4L
    assert(a.## == b.## && a != b)
    val ix = new HashIndex()
    Seq(a.##, 7, b.##).foreach(ix.add)
    assert(chain(ix, 5) == Seq(2, 0))
    assert(chain(ix, 7) == Seq(1))
    assert(ix.first(6) == -1)
  }

  test("growth through several resizes keeps every chain, newest first") {
    val ix = new HashIndex() // 16 buckets, doubling at 12, 24, 48, 96, ...
    val hashes = (0 until 1000).map(i => (i % 300) * 7919)
    hashes.foreach(ix.add)
    hashes.distinct.foreach { h =>
      assert(chain(ix, h) == hashes.indices.filter(hashes(_) == h).reverse)
    }
  }

  test("a size hint gives the same chains as growth") {
    val hs = (0 until 500).map(i => (i % 50) * 31)
    val hinted = new HashIndex(hs.size)
    val grown = new HashIndex()
    hs.foreach { h => hinted.add(h); grown.add(h) }
    hs.foreach(h => assert(chain(hinted, h) == chain(grown, h)))
  }

  test("keys sharing their low 9 bits spread over the buckets") {
    // Inside a radix sub-partition every key shares its low partition bits;
    // a bucket taken from the low bits would put these 1024 keys in 2 of
    // 1024 buckets.
    val bits = 10
    val keys = (0L until 1024L).map(i => (i << 9) | 0x1A5L)
    val used = keys.map(k => HashIndex.bucketOf(k.##, bits)).distinct.size
    assert(used >= 512, s"$used of 1024 buckets used")
  }
}
