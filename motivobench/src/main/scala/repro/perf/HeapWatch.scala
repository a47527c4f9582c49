package repro.perf

import com.sun.management.GarbageCollectionNotificationInfo
import java.lang.management.{ManagementFactory, MemoryType}
import java.util.concurrent.ConcurrentLinkedQueue
import javax.management.{Notification, NotificationEmitter, NotificationListener}
import javax.management.openmbean.CompositeData
import scala.jdk.CollectionConverters._

/** Heap occupancy after each garbage collection, from the JVM's GC
  * notifications. The highest value inside a window is the live-set
  * high-water mark of the work done in it.
  */
final class HeapWatch extends NotificationListener {
  import HeapWatch.Gc

  private val heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala
    .filter(_.getType == MemoryType.HEAP).map(_.getName).toSet
  private val events = new ConcurrentLinkedQueue[Gc]()
  private val beans = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq
  beans.foreach(_.asInstanceOf[NotificationEmitter].addNotificationListener(this, null, null))

  def handleNotification(n: Notification, handback: Any): Unit =
    if (n.getType == GarbageCollectionNotificationInfo.GARBAGE_COLLECTION_NOTIFICATION) {
      val info = GarbageCollectionNotificationInfo.from(n.getUserData.asInstanceOf[CompositeData]).getGcInfo
      val after = info.getMemoryUsageAfterGc.asScala.collect {
        case (pool, use) if heapPools(pool) => use.getUsed
      }.sum
      events.add(Gc(info.getEndTime, after))
    }

  /** Milliseconds since JVM start, the clock GC notifications use. */
  def now(): Long = ManagementFactory.getRuntimeMXBean.getUptime

  /** Total collection time of all collectors so far, in seconds. */
  def gcSeconds(): Double = beans.map(_.getCollectionTime).sum / 1e3

  /** Highest post-GC heap occupancy, in bytes, of collections that ended in
    * [fromMs, toMs]; the heap in use at `toMs` if no collection ran.
    */
  def maxAfterGc(fromMs: Long, toMs: Long): Long = {
    Thread.sleep(20) // notifications are delivered asynchronously
    val inWindow = events.asScala.filter(e => e.endMs >= fromMs && e.endMs <= toMs).map(_.heapAfter)
    events.clear()
    if (inWindow.nonEmpty) inWindow.max
    else ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed
  }

  def close(): Unit =
    beans.foreach(_.asInstanceOf[NotificationEmitter].removeNotificationListener(this))
}

object HeapWatch {
  private final case class Gc(endMs: Long, heapAfter: Long)
}
