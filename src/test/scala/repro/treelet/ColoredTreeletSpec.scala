package repro.treelet

import repro.SparkSpec

/** Colored treelet codec invariants (paper §3.1, Figure 1). */
class ColoredTreeletSpec extends SparkSpec {
  import ColoredTreelet._

  test("pack/unpack roundtrip over enumerated shapes and random masks") {
    val rnd = new scala.util.Random(1)
    for (h <- 1 to 8; t <- TreeletEnum.rootedTrees(h); _ <- 1 to 3) {
      val mask = rnd.nextInt(1 << 16)
      val ct = pack(t, mask)
      assert(shape(ct) == t)
      assert(colorMask(ct) == mask)
    }
  }

  test("singleton is consistent and carries its color") {
    for (c <- 0 until 16) {
      val ct = singleton(c)
      assert(isConsistent(ct))
      assert(colorMask(ct) == (1 << c))
      assert(size(ct) == 1)
    }
  }

  test("tryMerge requires disjoint colors") {
    val a = singleton(3)
    val b = singleton(3)
    assert(tryMerge(a, b) == -1L)
    assert(tryMerge(a, singleton(4)) != -1L)
  }

  test("tryMerge unions color masks and sums sizes") {
    val e = tryMerge(singleton(0), singleton(1))
    assert(e != -1L)
    assert(colorMask(e) == 3)
    assert(size(e) == 2)
    val p3 = tryMerge(e, singleton(2))
    assert(p3 != -1L)
    assert(size(p3) == 3)
    assert(colorMask(p3) == 7)
  }

  test("tryMerge respects canonical shape order") {
    // t1 = edge rooted at top (child = leaf), t2 = path of 2 ("10")
    val leaf = pack(Treelet.Singleton, 1 << 5)
    val edge = tryMerge(pack(Treelet.Singleton, 1 << 0), pack(Treelet.Singleton, 1 << 1))
    // merging a bigger-encoded subtree under a root whose first child is a
    // leaf must fail: edge shape "10" > leaf shape ""
    val t1 = tryMerge(pack(Treelet.Singleton, 1 << 2), leaf) // root with leaf child
    assert(t1 != -1L)
    assert(tryMerge(t1, edge) == -1L, "non-canonical merge accepted")
    // and the other way around is fine
    val t2 = tryMerge(pack(Treelet.Singleton, 1 << 2), edge)
    assert(t2 != -1L)
    assert(tryMerge(t2, leaf) != -1L)
  }

  test("isConsistent detects mask/size mismatch") {
    assert(!isConsistent(pack(TreeletEnum.pathRooted(3), 1)))
    assert(isConsistent(pack(TreeletEnum.pathRooted(3), 7)))
  }

  test("subsetsOfSize returns C(n, k) distinct masks inside the superset") {
    def binom(n: Int, k: Int): Int =
      if (k < 0 || k > n) 0 else (1 to k).foldLeft(1)((a, i) => a * (n - i + 1) / i)
    val rnd = new scala.util.Random(2)
    for (_ <- 1 to 50) {
      val mask = rnd.nextInt(1 << 10)
      val n = Integer.bitCount(mask)
      for (want <- 0 to n) {
        val subs = subsetsOfSize(mask, want)
        assert(subs.size == binom(n, want))
        assert(subs.distinct.size == subs.size)
        subs.foreach(s => assert((s & ~mask) == 0 && Integer.bitCount(s) == want))
      }
    }
  }

  test("colorSplits merge back to the original colored treelet") {
    val rnd = new scala.util.Random(3)
    for (h <- 2 to 7; t <- TreeletEnum.rootedTrees(h); _ <- 1 to 2) {
      // random color set of exactly h colors in [0, 8)
      val colors = rnd.shuffle((0 until 8).toList).take(h)
      val mask = colors.foldLeft(0)((m, c) => m | (1 << c))
      val ct = pack(t, mask)
      val splits = colorSplits(ct)
      val (s1, s2) = Treelet.decomp(t)
      val h2 = Treelet.size(s2)
      assert(splits.size == subsetsOfSize(mask, h2).size)
      for ((ct1, ct2) <- splits) {
        assert(isConsistent(ct1) && isConsistent(ct2))
        assert(shape(ct1) == s1 && shape(ct2) == s2)
        assert(tryMerge(ct1, ct2) == ct)
      }
    }
  }

  test("rank maps rootedTrees(h) × h-subsets of [k] one-to-one onto [0, R_h·C(k, h))") {
    for (k <- 1 to MaxK; h <- 1 to k) {
      val masks = subsetsOfSize((1 << k) - 1, h)
      val ranks = for (t <- TreeletEnum.rootedTrees(h); m <- masks) yield rank(pack(t, m), k)
      assert(ranks.sorted == (0 until rankCount(h, k)), s"k=$k h=$h")
    }
  }

  test("slot maps the colored treelets of 1 to 8 nodes over [8] one-to-one onto [0, SlotCount)") {
    val slots = for (h <- 1 to MaxK; t <- TreeletEnum.rootedTrees(h); m <- subsetsOfSize(0xFF, h)) yield {
      assert(hasSlot(pack(t, m)))
      slot(pack(t, m))
    }
    assert(SlotCount == 1991)
    assert(slots.sorted == (0 until SlotCount))
    assert(!hasSlot(pack(TreeletEnum.rootedTrees(9).head, 0x1FF)))
    assert(!hasSlot(pack(TreeletEnum.pathRooted(3), 0x103)))
    assert(!hasSlot(pack(TreeletEnum.pathRooted(3), 0x3)))
    assert(!hasSlot(pack(0x40000000, 0x3)))
  }

  test("the first-child and β tables equal decomp and beta for every rooted shape of 2 to 8 nodes") {
    for (h <- 2 to MaxK; t <- TreeletEnum.rootedTrees(h)) {
      assert(firstChild(t) == Treelet.decomp(t)._2, Treelet.toBitString(t))
      assert(beta(pack(t, (1 << h) - 1)) == Treelet.beta(t), Treelet.toBitString(t))
    }
  }

  test("the table-driven tryMerge equals the general path for every merge of at most 8 nodes") {
    val rnd = new scala.util.Random(4)
    def general(ct1: Long, ct2: Long): Long = {
      val (s1, s2) = (shape(ct1), shape(ct2))
      if ((colorMask(ct1) & colorMask(ct2)) != 0 || !Treelet.canMerge(s1, s2)) -1L
      else pack(Treelet.merge(s1, s2), colorMask(ct1) | colorMask(ct2))
    }
    def colors(n: Int): Int = rnd.shuffle((0 until MaxK).toList).take(n).foldLeft(0)((m, c) => m | (1 << c))
    var merged = 0
    for (h1 <- 1 until MaxK; h2 <- 1 to MaxK - h1;
         t1 <- TreeletEnum.rootedTrees(h1); t2 <- TreeletEnum.rootedTrees(h2)) {
      // one pair of disjoint color sets and one drawn independently
      val disjoint = rnd.shuffle((0 until MaxK).toList)
      val m1 = disjoint.take(h1).foldLeft(0)((m, c) => m | (1 << c))
      val m2 = disjoint.slice(h1, h1 + h2).foldLeft(0)((m, c) => m | (1 << c))
      for ((a, b) <- Seq(m1 -> m2, colors(h1) -> colors(h2))) {
        val (ct1, ct2) = (pack(t1, a), pack(t2, b))
        val m = tryMerge(ct1, ct2)
        assert(m == general(ct1, ct2), s"${toPrettyString(ct1)} ${toPrettyString(ct2)}")
        if (m != -1L) merged += 1
      }
    }
    assert(merged > 0)
  }

  test("splitPairs gives every code over 8 colors its own splits") {
    for (h <- 2 to MaxK; t <- TreeletEnum.rootedTrees(h); m <- subsetsOfSize(0xFF, h)) {
      val ct = pack(t, m)
      val (s1, s2) = Treelet.decomp(t)
      val direct = subsetsOfSize(m, Treelet.size(s2)).flatMap(c2 => Seq(pack(s1, m & ~c2), pack(s2, c2)))
      assert(splitPairs(ct).toSeq == direct, toPrettyString(ct))
    }
  }

  test("splitPairs rejects a code outside 2 to 8 nodes over colors [0, 8)") {
    val nine = TreeletEnum.rootedTrees(9).head
    val bad = Seq(
      "9 nodes" -> pack(nine, 0x1FF),
      "a color ≥ 8" -> pack(TreeletEnum.pathRooted(3), 0x103),
      "sizes differ" -> pack(TreeletEnum.pathRooted(3), 0x3),
      "one node" -> singleton(2),
      "not a shape" -> pack(0x40000000, 0x3))
    for ((why, ct) <- bad) {
      val e = intercept[IllegalArgumentException](splitPairs(ct))
      assert(e.getMessage.contains("not a colorful treelet of 2 to 8 nodes"), s"$why: ${e.getMessage}")
    }
  }
}
