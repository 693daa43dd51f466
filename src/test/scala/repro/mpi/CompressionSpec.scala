package repro.mpi

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class CompressionSpec extends AnyFunSuite {

  test("radixLongPair packs into a single long field") {
    val c = Compression.radixLongPair(fBits = 3)
    assert(c.enabled)
    assert(c.outType.fieldNames == Vector("c"))
    val packed = c.pack(Array[Any](42L, 7L), 2)
    assert(packed.length == 1)
  }

  test("none is disabled") {
    assert(!Compression.none.enabled)
  }

  test("pack/restore round-trips keys and values (property)") {
    val rnd = new Random(3)
    for (_ <- 1 to 200) {
      val fBits = 1 + rnd.nextInt(6)
      val pBits = 24 + rnd.nextInt(16)
      val c = Compression.radixLongPair(fBits, pBits)
      val k = rnd.nextLong(1L << 24)
      val v = rnd.nextLong(1L << pBits)
      val npid = (k & ((1L << fBits) - 1)).toInt
      val packed = c.pack(Array[Any](k, v), npid)(0).asInstanceOf[Long]
      assert(Compression.value(packed, pBits) == v)
      assert(Compression.restoreKey(Compression.keyHi(packed, pBits), npid, fBits) == k)
    }
  }

  test("keys equal iff (keyHi, npid) equal — joins on keyHi are sound") {
    val fBits = 4; val pBits = 32
    val c = Compression.radixLongPair(fBits, pBits)
    val mask = (1L << fBits) - 1
    for (k1 <- 0L until 64L; k2 <- 0L until 64L if (k1 & mask) == (k2 & mask)) {
      val p1 = c.pack(Array[Any](k1, 0L), (k1 & mask).toInt)(0).asInstanceOf[Long]
      val p2 = c.pack(Array[Any](k2, 0L), (k2 & mask).toInt)(0).asInstanceOf[Long]
      assert((Compression.keyHi(p1, pBits) == Compression.keyHi(p2, pBits)) == (k1 == k2))
    }
  }

  test("radixLongPair rejects payloads and keys outside the packable domain") {
    val c = Compression.radixLongPair(fBits = 4, pBits = 32)
    def pack(k: Long, v: Long) = c.pack(Array[Any](k, v), 0)(0).asInstanceOf[Long]
    for (v <- Seq(-1L, 1L << 32)) {
      val e = intercept[IllegalArgumentException](pack(1L, v))
      assert(e.getMessage.contains(v.toString))
    }
    val wide = 1L << 36 // 33 bits above the 4 partition bits
    assert(intercept[IllegalArgumentException](pack(wide, 0L)).getMessage.contains(wide.toString))
    assert(intercept[IllegalArgumentException](pack(-16L, 0L)).getMessage.contains("-16"))
    val top = (1L << 36) - 1
    val packed = pack(top, (1L << 32) - 1)
    assert(Compression.keyHi(packed, 32) == top >>> 4)
    assert(Compression.value(packed, 32) == (1L << 32) - 1)
  }

  test("NetConfig render summarizes the simulated cluster") {
    val s = NetConfig(ranksPerMachine = 2).render(8)
    assert(s.contains("4 machines"))
  }

  test("NetStats totals") {
    val s = new NetStats
    s.bytesCross = 10; s.bytesLocal = 5
    assert(s.bytesTotal == 15)
    assert(NetStats.totalCross(Seq(s, s)) == 20)
    assert(NetStats.totalAll(Seq(s, s)) == 30)
  }
}
