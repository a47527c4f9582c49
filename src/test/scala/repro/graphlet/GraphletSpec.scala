package repro.graphlet

import repro.SparkSpec

/** Graphlet codec + canonical labeling (Nauty substitute) invariants. */
class GraphletSpec extends SparkSpec {
  import Graphlet._

  private def permuted(adj: Array[Int], perm: Array[Int]): Array[Int] = {
    // perm(new) = old; build the relabeled adjacency
    val k = adj.length
    val inv = new Array[Int](k)
    for (i <- 0 until k) inv(perm(i)) = i
    val out = new Array[Int](k)
    for (i <- 0 until k; j <- 0 until k if ((adj(perm(i)) >> perm(j)) & 1) == 1)
      out(i) |= 1 << j
    val _ = inv
    out
  }

  private def randomAdj(k: Int, p: Double, rnd: scala.util.Random): Array[Int] = {
    val adj = new Array[Int](k)
    for (i <- 0 until k; j <- i + 1 until k if rnd.nextDouble() < p) {
      adj(i) |= 1 << j; adj(j) |= 1 << i
    }
    adj
  }

  test("encode/decode roundtrip on random graphs") {
    val rnd = new scala.util.Random(11)
    for (k <- 2 to 8; _ <- 1 to 50) {
      val adj = randomAdj(k, 0.5, rnd)
      assert(decode(encode(adj), k).toSeq == adj.toSeq)
    }
  }

  test("isConnected: known cases") {
    assert(isConnected(Array(2, 1)))            // single edge
    assert(!isConnected(Array(0, 0)))           // two isolated
    assert(isConnected(decode(encode(Array(6, 5, 3)), 3))) // triangle
    // path 0-1-2 plus isolated 3
    val adj = new Array[Int](4)
    adj(0) |= 2; adj(1) |= 1 | 4; adj(2) |= 2
    assert(!isConnected(adj))
  }

  test("canonical is invariant under random permutations") {
    val rnd = new scala.util.Random(12)
    for (k <- 2 to 7; _ <- 1 to 60) {
      val adj = randomAdj(k, 0.4 + rnd.nextDouble() * 0.4, rnd)
      val c0 = canonical(adj)
      for (_ <- 1 to 4) {
        val perm = rnd.shuffle((0 until k).toList).toArray
        assert(canonical(permuted(adj, perm)) == c0)
      }
    }
  }

  test("canonical is idempotent: canonical(decode(canonical)) == canonical") {
    val rnd = new scala.util.Random(13)
    for (k <- 2 to 7; _ <- 1 to 40) {
      val c = canonical(randomAdj(k, 0.5, rnd))
      assert(canonicalOfCode(c, k) == c)
    }
  }

  test("distinct connected graphlet counts: 2, 6, 21, 112 for k=3..6") {
    assert(allConnected(3).size == 2)
    assert(allConnected(4).size == 6)
    assert(allConnected(5).size == 21)
    assert(allConnected(6).size == 112)
  }

  test("distinct connected graphlet count for k=7 is 853") {
    assert(allConnected(7).size == 853)
  }

  test("degree sequence is preserved by canonicalization") {
    val rnd = new scala.util.Random(14)
    for (k <- 3 to 7; _ <- 1 to 40) {
      val adj = randomAdj(k, 0.5, rnd)
      val canon = decode(canonical(adj), k)
      assert(adj.map(Integer.bitCount).sorted.toSeq == canon.map(Integer.bitCount).sorted.toSeq)
    }
  }

  test("clique and empty graphs canonicalize to full/zero masks") {
    for (k <- 2 to 8) {
      val full = (1L << nPairs(k)) - 1
      assert(canonicalOfCode(full, k) == full)
      assert(canonicalOfCode(0L, k) == 0L)
    }
  }

  test("edgeCount matches the decoded adjacency") {
    val rnd = new scala.util.Random(15)
    for (k <- 2 to 8; _ <- 1 to 30) {
      val adj = randomAdj(k, 0.5, rnd)
      assert(edgeCount(encode(adj)) == adj.map(Integer.bitCount).sum / 2)
    }
  }

  test("stars and paths of every size have distinct canonical codes") {
    for (k <- 4 to 8) {
      val star = new Array[Int](k)
      for (i <- 1 until k) { star(0) |= 1 << i; star(i) |= 1 }
      val path = new Array[Int](k)
      for (i <- 0 until k - 1) { path(i) |= 1 << (i + 1); path(i + 1) |= 1 << i }
      assert(canonical(star) != canonical(path))
    }
  }

  test("the memo never returns another graph's code") {
    // every labeled 5-vertex graph: all labelings of every 5-vertex graph
    val k = 5
    val all = (0L until (1L << nPairs(k))).map(decode(_, k))
    all.foreach(canonical) // fill the memo in one order, then read it back
    val perms = (0 until k).permutations.map(_.toArray).toVector
    for (adj <- all) {
      val brute = perms.map(p => encode(permuted(adj, p))).min
      assert(canonical(adj) == brute, s"code ${encode(adj)}")
    }
  }

  test("relabelings share memo entries") {
    def labelings(adj: Array[Int]): Iterator[Array[Int]] =
      (0 until adj.length).permutations.map(p => permuted(adj, p.toArray))
    def path(k: Int): Array[Int] = {
      val adj = new Array[Int](k)
      for (i <- 0 until k - 1) { adj(i) |= 1 << (i + 1); adj(i + 1) |= 1 << i }
      adj
    }
    val star = new Array[Int](7)
    for (i <- 1 until 7) { star(0) |= 1 << i; star(i) |= 1 }
    // (graph, distinct raw codes among its labelings, memo entries they may fill)
    for ((adj, raw, bound) <- Seq((star, 7, 1), (path(6), 360, 24), (path(7), 2520, 120))) {
      assert(labelings(adj).map(encode).toSet.size == raw)
      clearMemo() // allConnected and the other tests may have filled these keys
      assert(labelings(adj).map(canonical).toSet == Set(canonical(adj)))
      assert(memoSize <= bound, s"${adj.toSeq}: $memoSize entries")
    }
  }
}
