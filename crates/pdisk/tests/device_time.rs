//! The device a sorter chooses its run formation by is the array's: a
//! `FileDiskArray`'s delay, named on the pool handle it lends out and so
//! passed up through every product layer, and zero on the in-memory
//! array.  The device that delay models serves each disk one block per
//! delay, from the request's arrival, and the `D` disks at once.

use pdisk::{
    Block, BlockAddr, BufferPool, CrashClock, DiskArray, DiskId, FaultModel, FileDiskArray, Forecast, Geometry,
    MemDiskArray, ParitySpec, RetryPolicy, StackSpec, U64Record,
};
use std::time::{Duration, Instant};

#[test]
fn device_time_is_the_delay_and_reaches_through_every_layer() {
    let g = Geometry::new(3, 4, 1000).unwrap();
    let dir = std::env::temp_dir().join(format!("pdisk-device-time-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut a: FileDiskArray<U64Record> = FileDiskArray::create(g, &dir).unwrap();
    assert_eq!(a.device_time(), Duration::ZERO);
    a.set_io_delay(Duration::from_micros(200));
    assert_eq!(a.device_time(), Duration::from_micros(200));
    // A pool installed from outside knows no device; the array lends it
    // out on its own.
    let pool = BufferPool::new();
    a.install_pool(pool.clone());
    assert_eq!((pool.device_time(), a.device_time()), (Duration::ZERO, Duration::from_micros(200)));
    // Tracing(Crashing(Retrying(Parity(Faulty(File))))), every layer on.
    let spec = StackSpec {
        faults: Some(FaultModel::random(7)),
        parity: Some(ParitySpec::default()),
        retry: Some(RetryPolicy::default()),
        crash: Some(CrashClock::counting()),
        trace: true,
    };
    let stack = spec.build(a, ()).unwrap();
    assert!(stack.faulty().is_some() && stack.redundancy().is_some() && stack.trace_sink().is_some());
    assert_eq!(stack.device_time(), Duration::from_micros(200));
    stack.backend().set_io_delay(Duration::ZERO);
    assert_eq!(stack.device_time(), Duration::ZERO);
    drop(stack);
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(MemDiskArray::<U64Record>::new(g).device_time(), Duration::ZERO);
}

/// The modelled device, δ = 2 ms a block, timed from outside: each disk
/// moves at most one block per δ and a request is served no sooner than
/// δ after it arrives (exact lower bounds), while the `D` devices of a
/// full-width operation serve it at once (a generous upper bound).
#[test]
fn a_modelled_device_moves_one_block_per_delta_per_disk_and_the_disks_at_once() {
    const DELTA: Duration = Duration::from_millis(2);
    let g = Geometry::new(4, 2, 1000).unwrap();
    let dir = std::env::temp_dir().join(format!("pdisk-device-clock-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut a: FileDiskArray<U64Record> = FileDiskArray::create(g, &dir).unwrap();
    let block = |k: u64| Block::new(vec![U64Record(k)], Forecast::Next(9));
    let offsets: Vec<u64> = (0..4).map(|d| a.alloc_contiguous(DiskId(d), 6).unwrap()).collect();
    let at = |d: usize, i: u64| BlockAddr::new(DiskId(d as u32), offsets[d] + i);
    a.set_io_delay(DELTA);

    // Six one-block writes queued on disk 0 before any is waited for.
    let start = Instant::now();
    let tickets: Vec<_> = (0..6).map(|i| a.submit_write(vec![(at(0, i), block(i))]).unwrap()).collect();
    for t in tickets {
        a.complete_write(t).unwrap();
    }
    let queued = start.elapsed();
    assert!(queued >= 6 * DELTA, "six blocks on one disk took {queued:?}");

    // Six full-width writes, each waited for: six device times, not 24.
    let start = Instant::now();
    for i in 0..6 {
        a.write((0..4).map(|d| (at(d, i), block(i))).collect()).unwrap();
    }
    let wide = start.elapsed();
    assert!(wide >= 6 * DELTA && wide < 12 * DELTA, "six full-width writes took {wide:?}");

    // A read of a disk idle for a while still costs its full δ.
    std::thread::sleep(3 * DELTA);
    let start = Instant::now();
    assert_eq!(a.read(&[at(1, 5)]).unwrap(), vec![block(5)]);
    let idle = start.elapsed();
    assert!(idle >= DELTA, "a read of an idle disk took {idle:?}");
    drop(a);
    let _ = std::fs::remove_dir_all(&dir);
}
