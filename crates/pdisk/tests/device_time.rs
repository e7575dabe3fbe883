//! The device a sorter chooses its run formation by is the array's: a
//! `FileDiskArray`'s delay, named on the pool handle it lends out and so
//! passed up through every product layer, and zero on the in-memory
//! array.

use pdisk::{
    BufferPool, CrashClock, DiskArray, FaultModel, FileDiskArray, Geometry, MemDiskArray, ParitySpec, RetryPolicy,
    StackSpec, U64Record,
};
use std::time::Duration;

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
