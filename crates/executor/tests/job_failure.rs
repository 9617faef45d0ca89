//! The executor's failure path: a job that cannot fit on its device comes
//! back as `JobError::Failed`, frees everything it allocated, and leaves
//! its tenant able to run the next job bit-identically.

use skelcl_executor::{Executor, ExecutorConfig, Job, JobError, JobOutput};
use vgpu::{DeviceSpec, Platform, PlatformConfig};

fn axpb(len: usize) -> Job {
    Job::Axpb {
        a: 1.5,
        b: -0.25,
        data: (0..len).map(|i| (i % 97) as f32 * 0.5).collect(),
    }
}

fn bits(out: &JobOutput) -> Vec<u32> {
    match out {
        JobOutput::Vector(v) => v.iter().map(|x| x.to_bits()).collect(),
        other => panic!("axpb returns a vector, got {other:?}"),
    }
}

#[test]
fn out_of_memory_job_fails_typed_and_leaks_nothing() {
    let spec = DeviceSpec {
        mem_bytes: 256 << 10,
        ..DeviceSpec::tiny()
    };
    let platform = Platform::new(
        PlatformConfig::default()
            .devices(1)
            .spec(spec)
            .cache_tag("executor-job-failure"),
    );
    let mut cfg = ExecutorConfig::default().devices(1).max_batch(1);
    cfg.spec = spec;
    let exec = Executor::from_platform(platform, cfg);
    let tenant = exec.add_tenant("t", 1);

    // Warm-up: builds the program, so the baseline below holds no
    // one-time allocations.
    let (warm, _) = exec.submit(tenant, axpb(1024)).unwrap().wait().unwrap();
    exec.drain();
    let device = exec.context().device(0);
    let baseline = device.available_bytes();

    // 128K floats are 512 KiB: the input alone overflows the 256 KiB device.
    let err = exec
        .submit(tenant, axpb(128 << 10))
        .unwrap()
        .wait()
        .expect_err("a job larger than device memory must fail");
    match &err {
        JobError::Failed(msg) => assert!(msg.contains("out of memory"), "{msg}"),
        other => panic!("expected JobError::Failed, got {other:?}"),
    }
    exec.drain();
    assert_eq!(
        device.available_bytes(),
        baseline,
        "the failed job must free every byte it allocated"
    );

    // The tenant still works, and bit-identically so.
    let (again, _) = exec.submit(tenant, axpb(1024)).unwrap().wait().unwrap();
    exec.drain();
    assert_eq!(bits(&again), bits(&warm));
    assert_eq!(device.available_bytes(), baseline);
}
