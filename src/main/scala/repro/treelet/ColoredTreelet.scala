package repro.treelet

import java.util.concurrent.ConcurrentHashMap

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
    if (!Treelet.canMerge(s1, s2)) return -1L
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

  private val splitMemo = new ConcurrentHashMap[java.lang.Long, Array[Long]]

  /** [[colorSplits]] flattened to (ct1, ct2, ct1, ct2, …) and memoized per
    * code: the sampler asks for it at every internal node of every sample.
    * Callers must not mutate the returned array.
    */
  def splitPairs(ct: Long): Array[Long] = {
    val hit = splitMemo.get(ct)
    if (hit != null) hit else splitMemo.computeIfAbsent(ct, _ => {
      val (s1, s2) = decompShapes(ct)
      val cm = colorMask(ct)
      subsetsOfSize(cm, Treelet.size(s2)).flatMap(c2 => Seq(pack(s1, cm & ~c2), pack(s2, c2))).toArray
    })
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
