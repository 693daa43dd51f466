package repro.bench

import org.scalatest.funsuite.AnyFunSuite

/** Table 1: implementation effort (SLOC per sub-operator + §5.1.1 claims). */
class Table1SlocBench extends AnyFunSuite {

  test("Table 1 — SLOC per sub-operator and derived claims") {
    val out = SlocCount.run()
    println(out)
    assert(out.contains("Table 1"))
  }

  test("shape: platform-specific code is the cheap part of a port") {
    val base = SlocCount.detectBase()
    val total = SlocCount.Operators
      .map { case (_, _, _, f, d) => SlocCount.operatorSloc(base, f, d) }.sum
    val mono = SlocCount.monolithSloc(base)
    assert(total > 0 && mono > 0)
    // The paper's claim shape: porting Modularis = rewriting only the
    // platform-specific operators, strictly cheaper than rewriting the
    // monolith. (Our ratio is below the paper's 3.8x because the Scala
    // monolith leans on the shared MpiRuntime just like the operators do —
    // see EXPERIMENTS.md.)
    val plat = SlocCount.Operators.filter(o => SlocCount.PlatformSpecific(o._1))
      .map { case (_, _, _, f, d) => SlocCount.operatorSloc(base, f, d) }.sum
    assert(plat < total, "platform-specific operators must be a strict subset")
    assert(mono.toDouble / plat > 1.0,
      s"porting the monolith ($mono SLOC) should cost more than rewriting " +
        s"the platform-specific operators ($plat SLOC)")
  }
}
