package repro.graphlet

import java.util.concurrent.ConcurrentHashMap

/** Graphlet codec and canonical labeling (the paper packs each graphlet's
  * adjacency matrix into a 128-bit word and canonicalizes with Nauty, §3.3).
  *
  * We support k ≤ 8, packing the strict upper triangle of the adjacency
  * matrix into a Long: the pair (i, j), i < j, occupies bit
  * `T − 1 − (j(j−1)/2 + i)` where T = k(k−1)/2. Pairs are grouped by the
  * larger endpoint j so that placing vertex j in a candidate labeling fixes
  * a contiguous run of bits — this makes prefix pruning in the canonical
  * search incremental.
  *
  * Canonical form = the *minimum* code over all vertex orderings, found by
  * branch-and-bound with twin pruning (vertices with identical adjacency
  * rows are interchangeable — handles stars/cliques in linear time). A
  * process-wide memo caches the result (the sampler re-sees the same
  * induced subgraphs constantly). Its key is the graphlet relabeled in
  * descending-degree order, ties kept in input order (refinement round 0),
  * so the labelings of one graphlet share few keys: the 7! labelings of the
  * 7-star share one, the 6-path's 360 share at most 24. The memo therefore
  * stays bounded by the graphlets' degree-ordered relabelings, not by how
  * the sampler happens to order their vertices.
  */
object Graphlet {

  final val MaxK = 8

  @inline def nPairs(k: Int): Int = k * (k - 1) / 2

  @inline private def rank(i: Int, j: Int): Int = j * (j - 1) / 2 + i // i < j

  /** Bit of pair (i, j), i < j, inside a k-graphlet code. */
  @inline def bit(i: Int, j: Int, k: Int): Long =
    1L << (nPairs(k) - 1 - rank(i, j))

  /** Encode adjacency rows (bitmask over k vertices) into a code. */
  def encode(adj: Array[Int]): Long = {
    val k = adj.length
    var code = 0L
    var j = 1
    while (j < k) {
      var i = 0
      while (i < j) {
        if (((adj(j) >> i) & 1) == 1) code |= bit(i, j, k)
        i += 1
      }
      j += 1
    }
    code
  }

  /** Decode a code into adjacency rows. */
  def decode(code: Long, k: Int): Array[Int] = {
    val adj = new Array[Int](k)
    var j = 1
    while (j < k) {
      var i = 0
      while (i < j) {
        if ((code & bit(i, j, k)) != 0) { adj(i) |= 1 << j; adj(j) |= 1 << i }
        i += 1
      }
      j += 1
    }
    adj
  }

  def edgeCount(code: Long): Int = java.lang.Long.bitCount(code)

  /** Connectivity of the graphlet given by adjacency rows. */
  def isConnected(adj: Array[Int]): Boolean = {
    val k = adj.length
    if (k == 0) return false
    var seen = 1
    var frontier = 1
    while (frontier != 0) {
      var nf = 0
      var v = 0
      while (v < k) {
        if (((frontier >> v) & 1) == 1) nf |= adj(v)
        v += 1
      }
      nf &= ~seen
      seen |= nf
      frontier = nf
    }
    Integer.bitCount(seen) == k
  }

  private val canonCache = new ConcurrentHashMap[Long, java.lang.Long]()

  /** Entries in the canonical-form memo. */
  private[graphlet] def memoSize: Int = canonCache.size

  /** Empties the memo, so that a test can count what one call sequence adds. */
  private[graphlet] def clearMemo(): Unit = canonCache.clear()

  /** Canonical (minimal) code over all labelings of the graphlet. */
  def canonical(adj: Array[Int]): Long = {
    val k = adj.length
    require(k >= 1 && k <= MaxK, s"k=$k out of range [1, $MaxK]")
    // cache key must include k; pack k into high bits (codes use ≤28 bits).
    // An odd multiplier is a bijection on Long, so the key stays exact; it
    // spreads the codes' low bits, which would otherwise crowd a few of the
    // map's bins into trees.
    val key = ((k.toLong << 56) | degreeOrderedCode(adj)) * 0x9E3779B97F4A7C15L
    val hit = canonCache.get(key)
    if (hit != null) return hit.longValue
    val res = canonicalSearch(adj)
    canonCache.put(key, res)
    res
  }

  /** The code of the graphlet relabeled so that degrees descend, ties kept
    * in input order. It is a relabeling of `adj`, so it has `adj`'s
    * canonical form and is a sound memo key.
    */
  private def degreeOrderedCode(adj: Array[Int]): Long = {
    val k = adj.length
    val order = new Array[Int](k) // order(new) = old; stable insertion sort
    var v = 0
    while (v < k) {
      val d = Integer.bitCount(adj(v))
      var p = v
      while (p > 0 && Integer.bitCount(adj(order(p - 1))) < d) { order(p) = order(p - 1); p -= 1 }
      order(p) = v
      v += 1
    }
    var code = 0L
    var j = 1
    while (j < k) {
      val row = adj(order(j))
      var i = 0
      while (i < j) {
        if (((row >> order(i)) & 1) == 1) code |= bit(i, j, k)
        i += 1
      }
      j += 1
    }
    code
  }

  def canonicalOfCode(code: Long, k: Int): Long = canonical(decode(code, k))

  private def canonicalSearch(adj: Array[Int]): Long = {
    val k = adj.length
    var best = -1L // unsigned max sentinel; any code is smaller
    val perm = new Array[Int](k) // perm(pos) = original vertex
    val codeAt = new Array[Long](k + 1) // partial code after filling positions < pos

    def dfs(pos: Int, usedMask: Int): Unit = {
      if (pos == k) {
        val c = codeAt(k)
        if (best == -1L || java.lang.Long.compareUnsigned(c, best) < 0) best = c
        return
      }
      // Candidates: unused vertices, de-duplicated by twin equivalence.
      var triedTwins = 0
      var v = 0
      while (v < k) {
        if (((usedMask >> v) & 1) == 0) {
          var isTwinOfTried = false
          var w = 0
          while (w < k && !isTwinOfTried) {
            if (((triedTwins >> w) & 1) == 1) {
              val m = ~((1 << v) | (1 << w))
              if ((adj(v) & m) == (adj(w) & m) &&
                  ((adj(v) >> w) & 1) == ((adj(w) >> v) & 1))
                isTwinOfTried = true
            }
            w += 1
          }
          if (!isTwinOfTried) {
            triedTwins |= 1 << v
            // Bits contributed by pairs (i, pos) for i < pos.
            var c = codeAt(pos)
            var i = 0
            while (i < pos) {
              if (((adj(perm(i)) >> v) & 1) == 1) c |= bit(i, pos, k)
              i += 1
            }
            // Prefix prune: compare the bits decided so far against best.
            val ok = best == -1L || {
              val mask = prefixMask(pos + 1, k)
              java.lang.Long.compareUnsigned(c & mask, best & mask) <= 0
            }
            if (ok) {
              perm(pos) = v
              codeAt(pos + 1) = c
              dfs(pos + 1, usedMask | (1 << v))
            }
          }
        }
        v += 1
      }
    }

    dfs(0, 0)
    best
  }

  /** Mask of code bits determined once positions 0..pos−1 are filled:
    * all pairs with larger endpoint < pos.
    */
  @inline private def prefixMask(pos: Int, k: Int): Long = {
    val decidedPairs = pos * (pos - 1) / 2
    if (decidedPairs == 0) 0L
    else ((1L << decidedPairs) - 1) << (nPairs(k) - decidedPairs)
  }

  /** All canonical connected graphlet codes on k nodes (2, 6, 21, 112, 853
    * for k = 3..7). Exponential sweep — used by tests; k ≤ 6 is instant,
    * k = 7 (2^21 labeled graphs) takes under a second.
    */
  def allConnected(k: Int): Vector[Long] = {
    val t = nPairs(k)
    val seen = collection.mutable.HashSet.empty[Long]
    var m = 0L
    val lim = 1L << t
    while (m < lim) {
      val adj = decode(m, k)
      if (isConnected(adj)) seen += canonical(adj)
      m += 1
    }
    seen.toVector.sorted
  }

  /** Degree sequence of a code (sorted descending) — an iso-invariant used
    * in tests.
    */
  def degrees(code: Long, k: Int): Seq[Int] =
    decode(code, k).map(Integer.bitCount).toSeq.sorted.reverse
}
