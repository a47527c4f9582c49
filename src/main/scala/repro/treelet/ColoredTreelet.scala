package repro.treelet

import java.util.concurrent.atomic.AtomicReferenceArray

/** Colored rooted treelet codec (paper §3.1, Figure 1).
  *
  * A colored treelet T_C is the concatenation of the shape code s_T and the
  * characteristic bit-vector s_C of its color set C ⊆ [k], k ≤ 16. We pack
  * it in a Long: shape (32 bits, already left-aligned) in the high half,
  * color mask in the low 16 bits. The invariant |T| = |C| (colorful
  * treelets only) is maintained by construction. Long ordering of codes is
  * (shape, colors) lexicographic — the order the compact count table sorts by.
  */
object ColoredTreelet {

  @inline def pack(shape: Int, colorMask: Int): Long =
    ((shape & 0xFFFFFFFFL) << 16) | (colorMask & 0xFFFFL)

  @inline def shape(ct: Long): Int = (ct >>> 16).toInt

  @inline def colorMask(ct: Long): Int = (ct & 0xFFFFL).toInt

  @inline def size(ct: Long): Int = Treelet.size(shape(ct))

  /** The singleton treelet carrying a single color. */
  @inline def singleton(color: Int): Long = pack(Treelet.Singleton, 1 << color)

  /** Colorfulness invariant: |shape| == |colors|. */
  def isConsistent(ct: Long): Boolean =
    Treelet.size(shape(ct)) == Integer.bitCount(colorMask(ct))

  /** Check-and-merge (the hot operation of the build-up phase): returns the
    * merged code of ct2 hung below the root of ct1, or −1 if the pair is not
    * mergeable (overlapping colors, or non-canonical shape order).
    */
  def tryMerge(ct1: Long, ct2: Long): Long = {
    val c1 = colorMask(ct1); val c2 = colorMask(ct2)
    if ((c1 & c2) != 0) return -1L
    val s1 = shape(ct1); val s2 = shape(ct2)
    // Treelet.canMerge, read from the table when ct1 has at most MaxK nodes
    if (Integer.compareUnsigned(s2, firstChild(s1)) > 0) return -1L
    pack(Treelet.merge(s1, s2), c1 | c2)
  }

  /** Decompose into (root part T'_{C'} , first-child part T''_{C''}) for a
    * given split of the color set. Used by the sampling phase, which must
    * enumerate the valid color splits of C (those giving |C''| = |T''|).
    */
  def decompShapes(ct: Long): (Int, Int) = Treelet.decomp(shape(ct))

  /** All (ct1, ct2) decompositions of `ct` over color splits: ct1 keeps the
    * root, ct2 is the first-child subtree. The count identity (Eq. 1) is
    * c(ct) = (1/β) Σ_{u~v} Σ_{splits} c(ct1, v)·c(ct2, u).
    */
  def colorSplits(ct: Long): Seq[(Long, Long)] =
    splitPairs(ct).grouped(2).map(p => (p(0), p(1))).toSeq

  /** The largest treelet size and color count the dense ranks cover. A
    * rooted shape of h ≤ 8 nodes is a Dyck word of at most 14 bits,
    * MSB-first, so `shape >>> 18` indexes it exactly.
    */
  final val MaxK = 8

  // C(n, r) for n, r ≤ MaxK
  private val binom: Array[Array[Int]] = {
    val c = Array.ofDim[Int](MaxK + 1, MaxK + 1)
    for (n <- 0 to MaxK) { c(n)(0) = 1; for (r <- 1 to n) c(n)(r) = c(n - 1)(r - 1) + c(n - 1)(r) }
    c
  }

  // rank of each rooted shape of ≤ MaxK nodes among rootedTrees(its size),
  // at index shape >>> 18; −1 at every other index
  private val shapeRanks: Array[Int] = {
    val a = Array.fill(1 << 14)(-1)
    for (h <- 1 to MaxK; (t, i) <- TreeletEnum.rootedTrees(h).zipWithIndex) a(t >>> 18) = i
    a
  }

  // colex rank of each mask over [MaxK] among the masks of its size: the
  // sum of C(c_i, i) over its colors c_1 < c_2 < …, which is below C(k, h)
  // for h colors in [k]
  private val maskRanks: Array[Int] = Array.tabulate(1 << MaxK) { m =>
    (0 until MaxK).filter(c => ((m >> c) & 1) == 1).zipWithIndex.map { case (c, i) => binom(c)(i + 1) }.sum
  }

  /** R_h · C(k, h): the number of colored treelets of size h over colors [k]. */
  def rankCount(h: Int, k: Int): Int = TreeletEnum.rootedTrees(h).length * binom(k)(h)

  /** The rank of `ct` among the colored treelets of its size h over colors
    * [k], for h ≤ k ≤ 8: its shape's rank among `rootedTrees(h)` times
    * C(k, h), plus its color mask's rank among the h-subsets of [k]. A
    * one-to-one map onto [0, rankCount(h, k)) that reads two tables. It
    * checks nothing: callers pass codes of a table's records.
    */
  @inline def rank(ct: Long, k: Int): Int = {
    val m = colorMask(ct)
    shapeRanks(shape(ct) >>> 18) * binom(k)(Integer.bitCount(m)) + maskRanks(m)
  }

  // the first dense slot of each size h: the colored treelets of h nodes
  // over colors [MaxK] fill [slotBase(h), slotBase(h + 1)) in rank order
  private val slotBase: Array[Int] =
    (0 to MaxK).scanLeft(0)((b, h) => if (h < 1) b else b + rankCount(h, MaxK)).toArray

  /** The number of dense slots: colored treelets of 1 to 8 nodes over colors [8]. */
  final val SlotCount: Int = slotBase(MaxK + 1)

  // slotBase(h) + rank · C(MaxK, h) of each rooted shape of h ≤ MaxK nodes,
  // at index shape >>> 18; Int.MinValue at every other index, so that a
  // slot read with any other word fails
  private val shapeSlots: Array[Int] = {
    val a = Array.fill(1 << 14)(Int.MinValue)
    for (h <- 1 to MaxK; (t, i) <- TreeletEnum.rootedTrees(h).zipWithIndex) a(t >>> 18) = slotBase(h) + i * binom(MaxK)(h)
    a
  }

  /** The dense slot of `ct` in [0, [[SlotCount]]): `rank(ct, MaxK)` offset
    * by the slots of the smaller sizes, so every colored treelet of 1 to 8
    * nodes over colors [8] has its own. Two table reads; like `rank` it
    * checks nothing.
    */
  @inline def slot(ct: Long): Int = shapeSlots(shape(ct) >>> 18) + maskRanks(colorMask(ct))

  /** True when `slot(ct)` is `ct`'s own: a colorful treelet of 1 to 8 nodes
    * over colors [8]. A shape bit below the 14-bit word or a color ≥ MaxK is
    * out of range.
    */
  def hasSlot(ct: Long): Boolean =
    (ct & 0x3FFFFFF00L) == 0 && shapeSlots(shape(ct) >>> 18) >= 0 && isConsistent(ct)

  // the first child (Treelet.decomp(t)._2) and β (Treelet.beta(t)) of every
  // word t of at most 14 bits, at index t >>> 18: every rooted shape of 2 to
  // MaxK nodes among them. The singleton's first child is the unsigned
  // maximum, so every shape merges below it, and its β is 1.
  private val firstChildren: Array[Int] =
    Array.tabulate(1 << 14)(i => if (i == 0) -1 else Treelet.decomp(i << 18)._2)
  private val betas: Array[Int] =
    Array.tabulate(1 << 14)(i => if (i == 0) 1 else Treelet.beta(i << 18))

  /** The first child of shape `t` as [[Treelet.decomp]] finds it: one table
    * read for at most MaxK nodes. −1, above every shape, for the singleton.
    */
  private[treelet] def firstChild(t: Int): Int =
    if ((t & 0x3FFFF) == 0) firstChildren(t >>> 18) else Treelet.decomp(t)._2

  /** β of the shape of `ct` (Eq. 1), as [[Treelet.beta]] finds it: one table
    * read for at most MaxK nodes.
    */
  def beta(ct: Long): Int = {
    val t = shape(ct)
    if ((t & 0x3FFFF) == 0) betas(t >>> 18) else Treelet.beta(t)
  }

  private val splitMemo = new AtomicReferenceArray[Array[Long]](SlotCount)

  /** [[colorSplits]] flattened to (ct1, ct2, ct1, ct2, …) and memoized at
    * the code's [[slot]]: the samplers ask for it at every internal node of
    * every sample. Codes of more than 8 nodes or with a color outside [8]
    * are rejected. Callers must not mutate the returned array.
    */
  def splitPairs(ct: Long): Array[Long] = {
    val m = colorMask(ct)
    if (Integer.bitCount(m) < 2 || !hasSlot(ct))
      throw new IllegalArgumentException(
        s"not a colorful treelet of 2 to $MaxK nodes over colors [0, $MaxK): ${toPrettyString(ct)}")
    val at = slot(ct)
    val hit = splitMemo.get(at)
    if (hit != null) hit
    else {
      val (s1, s2) = decompShapes(ct)
      val pairs = subsetsOfSize(m, Treelet.size(s2)).flatMap(c2 => Seq(pack(s1, m & ~c2), pack(s2, c2))).toArray
      splitMemo.compareAndSet(at, null, pairs)
      splitMemo.get(at)
    }
  }

  /** All sub-masks of `mask` with exactly `want` bits set. */
  def subsetsOfSize(mask: Int, want: Int): Seq[Int] = {
    val bits = (0 until 16).filter(i => ((mask >> i) & 1) == 1).toArray
    val out = Seq.newBuilder[Int]
    def rec(idx: Int, left: Int, acc: Int): Unit = {
      if (left == 0) { out += acc; return }
      if (bits.length - idx < left) return
      rec(idx + 1, left - 1, acc | (1 << bits(idx)))
      rec(idx + 1, left, acc)
    }
    rec(0, want, 0)
    out.result()
  }

  def toPrettyString(ct: Long): String =
    s"[${Treelet.toBitString(shape(ct))}|C=${(0 until 16).filter(i => ((colorMask(ct) >> i) & 1) == 1).mkString(",")}]"
}
