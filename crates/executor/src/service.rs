//! The multi-tenant executor: bounded per-tenant queues in front of one
//! dispatcher thread that multiplexes tenants onto the shared virtual
//! platform.
//!
//! # Threading model
//!
//! Client threads call [`Executor::submit`] concurrently; submission only
//! takes the scheduler lock, stamps the job with the current virtual time
//! and clock epoch, and enqueues it — no device commands are issued on
//! client threads. A single dispatcher thread pops batches and runs them
//! through [`crate::job::run_batch`], so every device command is issued
//! from one thread in a deterministic order per schedule, while the
//! *modeled* timeline still overlaps across tenants because each tenant
//! owns its own in-order streams (`Context::fork_streams`) and results are
//! materialized with `read_back_async` (the host clock is never synced to
//! device completion).
//!
//! # Scheduling
//!
//! [`SchedulingMode::WeightedRoundRobin`] visits backlogged tenants in a
//! cycle; each visit grants the tenant `weight` launches before the cursor
//! moves on, and each launch may coalesce up to `max_batch` consecutive
//! same-key jobs from that tenant's queue into one fused call. A tenant
//! that floods its queue therefore only lengthens *its own* backlog — other
//! tenants still get their launches every cycle. [`SchedulingMode::Fifo`]
//! dispatches in global arrival order instead and exists as the fairness
//! baseline: under it, one flooding tenant head-of-line-blocks everyone.
//!
//! # Backpressure
//!
//! Each tenant's queue is bounded at `queue_depth`; `submit` against a full
//! queue returns [`SubmitError::QueueFull`] immediately (shed, not
//! blocked) and bumps the tenant's `rejected` counter.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use skelcl::metrics::{Counter, Gauge, Histogram, MetricsRegistry};
use skelcl::{Context, SloSummary};
use vgpu::{Platform, PlatformConfig};

use crate::handle::{JobError, JobHandle, JobReport, Slot, SubmitError};
use crate::job::{run_batch, Job};

/// Scheduler policy for draining tenant queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulingMode {
    /// Fair: cycle over backlogged tenants, `weight` launches per visit.
    WeightedRoundRobin,
    /// Baseline: strict global arrival order (no fairness isolation).
    Fifo,
}

/// Configuration for [`Executor::new`].
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    /// Number of virtual devices.
    pub devices: usize,
    /// Device model for every device.
    pub spec: vgpu::DeviceSpec,
    /// Work-group size handed to skeleton launches.
    pub work_group: usize,
    /// Optional on-disk kernel-cache tag (shared across tenants).
    pub cache_tag: Option<String>,
    /// Per-tenant queue bound; `submit` sheds beyond this depth.
    pub queue_depth: usize,
    /// Max jobs fused into one launch; `1` disables coalescing.
    pub max_batch: usize,
    /// Queue-drain policy.
    pub scheduling: SchedulingMode,
    /// Start with the dispatcher paused (tests/benches pre-load queues,
    /// then `drain` for a deterministic dispatch schedule).
    pub paused: bool,
    /// Optional per-job latency target (virtual seconds). When set, each
    /// completed job whose submit→ready latency exceeds the target bumps
    /// its tenant's `executor.tenant.<name>.slo_miss` counter and the
    /// service-wide `executor.slo_misses`; [`Executor::slo_summary`]
    /// aggregates the verdict for [`skelcl::RunReport::with_slo`].
    pub latency_slo_s: Option<f64>,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            devices: 2,
            spec: vgpu::DeviceSpec::default(),
            work_group: skelcl::DEFAULT_WORK_GROUP,
            cache_tag: None,
            queue_depth: 64,
            max_batch: 16,
            scheduling: SchedulingMode::WeightedRoundRobin,
            paused: false,
            latency_slo_s: None,
        }
    }
}

impl ExecutorConfig {
    pub fn devices(mut self, n: usize) -> Self {
        self.devices = n;
        self
    }

    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth;
        self
    }

    pub fn max_batch(mut self, n: usize) -> Self {
        self.max_batch = n.max(1);
        self
    }

    pub fn scheduling(mut self, mode: SchedulingMode) -> Self {
        self.scheduling = mode;
        self
    }

    pub fn paused(mut self) -> Self {
        self.paused = true;
        self
    }

    /// Set the per-job latency SLO target (virtual seconds).
    pub fn latency_slo(mut self, target_s: f64) -> Self {
        self.latency_slo_s = Some(target_s);
        self
    }
}

/// Opaque tenant identifier returned by [`Executor::add_tenant`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TenantId(pub(crate) usize);

struct Queued {
    job: Job,
    slot: Arc<Slot>,
    submit_s: f64,
    epoch: u64,
    /// Span id allocated at submit when span collection is on — the job's
    /// trace identity, so its queue-wait and service intervals land in the
    /// Chrome trace as children of one per-job span.
    span: Option<u64>,
}

struct Tenant {
    name: String,
    weight: usize,
    home: usize,
    ctx: Context,
    queue: VecDeque<Queued>,
    submitted: Counter,
    completed: Counter,
    rejected: Counter,
    depth: Gauge,
    latency: Histogram,
    slo_miss: Counter,
    shed_rate: Gauge,
}

struct SchedState {
    tenants: Vec<Tenant>,
    /// Global arrival order (tenant index per queued job) — Fifo mode only.
    fifo: VecDeque<usize>,
    /// WRR cursor: current tenant index and launches left in its quantum.
    rr_cursor: usize,
    rr_turns_left: usize,
    pending: usize,
    in_flight: usize,
    paused: bool,
    shutdown: bool,
}

struct ServiceMetrics {
    submitted: Counter,
    completed: Counter,
    rejected: Counter,
    batches: Counter,
    coalesced_jobs: Counter,
    stale_epoch_jobs: Counter,
    latency: Histogram,
    slo_miss: Counter,
    shed_rate: Gauge,
}

impl ServiceMetrics {
    fn new(reg: &MetricsRegistry) -> ServiceMetrics {
        ServiceMetrics {
            submitted: reg.counter("executor.jobs.submitted"),
            completed: reg.counter("executor.jobs.completed"),
            rejected: reg.counter("executor.jobs.rejected"),
            batches: reg.counter("executor.batches"),
            coalesced_jobs: reg.counter("executor.coalesced_jobs"),
            stale_epoch_jobs: reg.counter("executor.stale_epoch_jobs"),
            latency: reg.histogram("executor.latency_s"),
            slo_miss: reg.counter("executor.slo_misses"),
            shed_rate: reg.gauge("executor.shed_rate"),
        }
    }

    /// Recompute the service-wide shed-rate gauge (shed / arrivals).
    fn update_shed_rate(&self) {
        let accepted = self.submitted.get();
        let shed = self.rejected.get();
        let total = accepted + shed;
        if total > 0 {
            self.shed_rate.set(shed as f64 / total as f64);
        }
    }
}

struct Shared {
    root: Context,
    cfg: ExecutorConfig,
    state: Mutex<SchedState>,
    /// Signalled on submit / drain / shutdown — wakes the dispatcher.
    work: Condvar,
    /// Signalled when the service goes idle — wakes `drain`.
    idle: Condvar,
    metrics: ServiceMetrics,
}

/// Recompute a tenant's shed-rate gauge (shed / arrivals).
fn update_tenant_shed_rate(t: &Tenant) {
    let accepted = t.submitted.get();
    let shed = t.rejected.get();
    let total = accepted + shed;
    if total > 0 {
        t.shed_rate.set(shed as f64 / total as f64);
    }
}

/// One batch popped from the scheduler, with everything `execute` needs so
/// the lock is not held across device work.
struct BatchPlan {
    jobs: Vec<Queued>,
    ctx: Context,
    home: usize,
    tenant: String,
    completed: Counter,
    latency: Histogram,
    slo_miss: Counter,
}

/// The multi-tenant executor service. See the module docs for the model.
pub struct Executor {
    shared: Arc<Shared>,
    dispatcher: Option<JoinHandle<()>>,
}

impl Executor {
    /// Build a fresh virtual platform per `cfg` and start the dispatcher.
    pub fn new(cfg: ExecutorConfig) -> Executor {
        let mut pc = PlatformConfig::default()
            .devices(cfg.devices)
            .spec(cfg.spec);
        if let Some(tag) = &cfg.cache_tag {
            pc = pc.cache_tag(tag);
        }
        Executor::from_platform(Platform::new(pc), cfg)
    }

    /// Wrap an existing platform (benches share one platform between the
    /// executor and hand-rolled baselines).
    pub fn from_platform(platform: Platform, cfg: ExecutorConfig) -> Executor {
        let root = Context::from_platform(platform, cfg.work_group);
        let metrics = ServiceMetrics::new(root.metrics());
        let shared = Arc::new(Shared {
            root,
            state: Mutex::new(SchedState {
                tenants: Vec::new(),
                fifo: VecDeque::new(),
                rr_cursor: 0,
                rr_turns_left: 0,
                pending: 0,
                in_flight: 0,
                paused: cfg.paused,
                shutdown: false,
            }),
            cfg,
            work: Condvar::new(),
            idle: Condvar::new(),
            metrics,
        });
        let dispatcher = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("skelcl-executor".into())
                .spawn(move || dispatch_loop(&shared))
                .expect("spawn dispatcher thread")
        };
        Executor {
            shared,
            dispatcher: Some(dispatcher),
        }
    }

    /// Register a tenant: forks per-tenant in-order streams off the root
    /// context and pins a home device (round-robin over devices) for the
    /// coalescable small-job kinds. `weight` is the tenant's launches per
    /// round-robin visit (min 1).
    pub fn add_tenant(&self, name: impl Into<String>, weight: usize) -> TenantId {
        let name = name.into();
        let ctx = self.shared.root.fork_streams();
        let reg = self.shared.root.metrics();
        let mut st = self.shared.state.lock().unwrap();
        let id = st.tenants.len();
        st.tenants.push(Tenant {
            home: id % self.shared.root.n_devices(),
            ctx,
            weight: weight.max(1),
            queue: VecDeque::new(),
            submitted: reg.counter(&format!("executor.tenant.{name}.submitted")),
            completed: reg.counter(&format!("executor.tenant.{name}.completed")),
            rejected: reg.counter(&format!("executor.tenant.{name}.rejected")),
            depth: reg.gauge(&format!("executor.tenant.{name}.queue_depth")),
            latency: reg.histogram(&format!("executor.tenant.{name}.latency_s")),
            slo_miss: reg.counter(&format!("executor.tenant.{name}.slo_miss")),
            shed_rate: reg.gauge(&format!("executor.tenant.{name}.shed_rate")),
            name,
        });
        TenantId(id)
    }

    /// Submit a job for `tenant`. Returns a [`JobHandle`] future, or sheds
    /// with [`SubmitError::QueueFull`] when the tenant's queue is at depth.
    /// Thread-safe; never blocks on device work.
    pub fn submit(&self, tenant: TenantId, job: Job) -> Result<JobHandle, SubmitError> {
        let submit_s = self.shared.root.host_now_s();
        let epoch = self.shared.root.platform().clock_epoch();
        let mut st = self.shared.state.lock().unwrap();
        if st.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        let depth_limit = self.shared.cfg.queue_depth;
        let fifo_mode = self.shared.cfg.scheduling == SchedulingMode::Fifo;
        let t = st
            .tenants
            .get_mut(tenant.0)
            .ok_or(SubmitError::UnknownTenant)?;
        if t.queue.len() >= depth_limit {
            t.rejected.inc();
            update_tenant_shed_rate(t);
            self.shared.metrics.rejected.inc();
            self.shared.metrics.update_shed_rate();
            return Err(SubmitError::QueueFull {
                tenant: t.name.clone(),
                depth: depth_limit,
            });
        }
        let slot = Slot::new();
        t.queue.push_back(Queued {
            job,
            slot: Arc::clone(&slot),
            submit_s,
            epoch,
            span: self.shared.root.alloc_span_id(),
        });
        t.submitted.inc();
        t.depth.set(t.queue.len() as f64);
        update_tenant_shed_rate(t);
        self.shared.metrics.submitted.inc();
        self.shared.metrics.update_shed_rate();
        st.pending += 1;
        if fifo_mode {
            st.fifo.push_back(tenant.0);
        }
        drop(st);
        self.shared.work.notify_one();
        Ok(JobHandle { slot })
    }

    /// Halt dispatch (queued jobs stay queued; submissions still accepted).
    pub fn pause(&self) {
        self.shared.state.lock().unwrap().paused = true;
    }

    /// Block until every queued and in-flight job has completed. Resumes a
    /// paused dispatcher (draining while paused would never finish).
    pub fn drain(&self) {
        let mut st = self.shared.state.lock().unwrap();
        if st.paused {
            st.paused = false;
            self.shared.work.notify_all();
        }
        while st.pending > 0 || st.in_flight > 0 {
            st = self.shared.idle.wait(st).unwrap();
        }
    }

    /// The shared root context (platform, metrics registry, span collector).
    pub fn context(&self) -> &Context {
        &self.shared.root
    }

    /// The shared metrics registry (per-tenant `executor.tenant.*` series,
    /// service-wide `executor.*` counters and the latency histogram).
    pub fn metrics(&self) -> &MetricsRegistry {
        self.shared.root.metrics()
    }

    /// Current queue depth for a tenant (0 for unknown ids).
    pub fn queue_depth(&self, tenant: TenantId) -> usize {
        let st = self.shared.state.lock().unwrap();
        st.tenants.get(tenant.0).map_or(0, |t| t.queue.len())
    }

    /// Service-wide SLO verdict so far: deadline misses against the
    /// configured [`ExecutorConfig::latency_slo`] target, completed jobs,
    /// and shed submissions. `None` when no target was configured. Attach
    /// to a [`skelcl::RunReport`] via `with_slo` so serving figures (and
    /// the telemetry JSON export) carry it.
    pub fn slo_summary(&self) -> Option<SloSummary> {
        let target_s = self.shared.cfg.latency_slo_s?;
        Some(SloSummary {
            target_s,
            deadline_misses: self.shared.metrics.slo_miss.get(),
            jobs: self.shared.metrics.completed.get(),
            shed: self.shared.metrics.rejected.get(),
        })
    }
}

impl Drop for Executor {
    /// Graceful shutdown: mark, wake, and join — the dispatcher drains
    /// every already-queued job before exiting, so no accepted job is
    /// left pending.
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
        }
        self.shared.work.notify_all();
        if let Some(h) = self.dispatcher.take() {
            let _ = h.join();
        }
    }
}

fn dispatch_loop(shared: &Shared) {
    loop {
        let plan = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.pending == 0 && st.shutdown {
                    return;
                }
                // Shutdown overrides pause: queued jobs must drain.
                if st.pending > 0 && (!st.paused || st.shutdown) {
                    break;
                }
                st = shared.work.wait(st).unwrap();
            }
            let plan = take_batch(shared, &mut st);
            st.pending -= plan.jobs.len();
            st.in_flight += plan.jobs.len();
            plan
        };
        let n = plan.jobs.len();
        execute(shared, plan);
        let mut st = shared.state.lock().unwrap();
        st.in_flight -= n;
        if st.pending == 0 && st.in_flight == 0 {
            shared.idle.notify_all();
        }
    }
}

/// Pop the next launch batch under the scheduler lock. Both modes pop at
/// least one job, then extend with *consecutive* same-key jobs from the
/// same tenant (up to `max_batch`) so per-tenant FIFO order is preserved.
fn take_batch(shared: &Shared, st: &mut SchedState) -> BatchPlan {
    let max_batch = shared.cfg.max_batch.max(1);
    let ti = match shared.cfg.scheduling {
        SchedulingMode::Fifo => st.fifo.pop_front().expect("pending > 0 implies fifo entry"),
        SchedulingMode::WeightedRoundRobin => {
            let n = st.tenants.len();
            let start = st.rr_cursor.min(n.saturating_sub(1));
            let ti = (0..n)
                .map(|off| (start + off) % n)
                .find(|&t| !st.tenants[t].queue.is_empty())
                .expect("pending > 0 implies a backlogged tenant");
            if ti != st.rr_cursor || st.rr_turns_left == 0 {
                st.rr_cursor = ti;
                st.rr_turns_left = st.tenants[ti].weight;
            }
            ti
        }
    };
    let key = st.tenants[ti]
        .queue
        .front()
        .expect("tenant selected with work")
        .job
        .coalesce_key();
    let mut jobs = vec![st.tenants[ti].queue.pop_front().expect("checked above")];
    while jobs.len() < max_batch {
        let next_matches = key.is_some()
            && st.tenants[ti]
                .queue
                .front()
                .is_some_and(|q| q.job.coalesce_key() == key);
        if !next_matches {
            break;
        }
        jobs.push(st.tenants[ti].queue.pop_front().expect("front checked"));
        if shared.cfg.scheduling == SchedulingMode::Fifo {
            // Every queued job has one fifo entry; the coalesced followers'
            // entries are this tenant's oldest remaining ones.
            let pos = st
                .fifo
                .iter()
                .position(|&t| t == ti)
                .expect("fifo entry per queued job");
            st.fifo.remove(pos);
        }
    }
    if shared.cfg.scheduling == SchedulingMode::WeightedRoundRobin {
        st.rr_turns_left = st.rr_turns_left.saturating_sub(1);
        if st.tenants[ti].queue.is_empty() {
            // The tenant drained mid-quantum. Forfeit the leftover turns:
            // the cursor parks here while the service idles, and without
            // this the stale `rr_turns_left` would shortchange the
            // tenant's *next* visit (it resumed the old quantum instead of
            // starting a fresh `weight`-sized one).
            st.rr_turns_left = 0;
        }
        if st.rr_turns_left == 0 {
            st.rr_cursor = (ti + 1) % st.tenants.len().max(1);
        }
    }
    let t = &st.tenants[ti];
    t.depth.set(t.queue.len() as f64);
    BatchPlan {
        jobs,
        ctx: t.ctx.clone(),
        home: t.home,
        tenant: t.name.clone(),
        completed: t.completed.clone(),
        latency: t.latency.clone(),
        slo_miss: t.slo_miss.clone(),
    }
}

/// Run one batch outside the scheduler lock and fill its slots.
fn execute(shared: &Shared, plan: BatchPlan) {
    let BatchPlan {
        jobs,
        ctx,
        home,
        tenant,
        completed,
        latency,
        slo_miss,
    } = plan;
    let kind = jobs[0].job.kind();
    let batched = jobs.len();
    let start_s = ctx.host_now_s();
    let epoch_now = ctx.platform().clock_epoch();
    let mut span = shared.root.span("executor.batch");
    span.attr("tenant", tenant.clone());
    span.attr("kind", kind);
    span.attr("jobs", batched.to_string());
    let job_refs: Vec<Job> = jobs.iter().map(|q| q.job.clone()).collect();
    let result = run_batch(&ctx, home, &job_refs);
    drop(span);
    shared.metrics.batches.inc();
    if batched > 1 {
        shared.metrics.coalesced_jobs.add(batched as u64 - 1);
    }
    match result {
        Ok(outputs) => {
            for (q, (out, ready_s)) in jobs.into_iter().zip(outputs) {
                let stale_epoch = q.epoch != epoch_now;
                if stale_epoch {
                    shared.metrics.stale_epoch_jobs.inc();
                }
                let report = JobReport {
                    tenant: tenant.clone(),
                    kind,
                    submit_s: q.submit_s,
                    start_s,
                    ready_s,
                    batched,
                    stale_epoch,
                };
                latency.observe(report.latency_s());
                shared.metrics.latency.observe(report.latency_s());
                if let Some(target) = shared.cfg.latency_slo_s {
                    if report.latency_s() > target {
                        slo_miss.inc();
                        shared.metrics.slo_miss.inc();
                    }
                }
                record_job_spans(shared, &q, &report);
                completed.inc();
                shared.metrics.completed.inc();
                q.slot.fill(Ok((out, report)));
            }
        }
        Err(e) => {
            let msg = e.to_string();
            for q in jobs {
                q.slot.fill(Err(JobError::Failed(msg.clone())));
            }
        }
    }
}

/// Emit the job's trace spans: a whole-job `executor.job` span over
/// `[submit, ready]` with `executor.job.queue_wait` and
/// `executor.job.service` children, all tagged with the tenant so the
/// Chrome exporter routes them to the tenant's lane. The job span is a
/// *root* span — its interval starts at submit time, before the dispatch
/// batch opened, so parenting it under `executor.batch` would violate the
/// nesting invariant. Stale-epoch jobs are skipped (their submit timestamp
/// belongs to a dead clock).
fn record_job_spans(shared: &Shared, q: &Queued, report: &JobReport) {
    let Some(span_id) = q.span else { return };
    if report.stale_epoch {
        return;
    }
    let tag = |extra: bool| {
        let mut attrs = vec![
            ("tenant", report.tenant.clone()),
            ("kind", report.kind.to_string()),
        ];
        if extra {
            attrs.push(("batched", report.batched.to_string()));
        }
        attrs
    };
    let ctx = &shared.root;
    let id = ctx.record_interval_span(
        Some(span_id),
        "executor.job",
        None,
        report.submit_s,
        report.ready_s,
        tag(true),
    );
    ctx.record_interval_span(
        None,
        "executor.job.queue_wait",
        id,
        report.submit_s,
        report.start_s,
        tag(false),
    );
    ctx.record_interval_span(
        None,
        "executor.job.service",
        id,
        report.start_s,
        report.ready_s,
        tag(false),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobOutput;

    fn ramp(n: usize, salt: f32) -> Vec<f32> {
        (0..n).map(|i| (i as f32).mul_add(0.5, salt)).collect()
    }

    #[test]
    fn submit_wait_roundtrip_matches_direct_run() {
        let exec = Executor::new(ExecutorConfig::default());
        let t = exec.add_tenant("alice", 1);
        let h = exec
            .submit(
                t,
                Job::Axpb {
                    a: 3.0,
                    b: 1.0,
                    data: ramp(32, 0.0),
                },
            )
            .unwrap();
        let (out, report) = h.wait().unwrap();
        let expect: Vec<f32> = ramp(32, 0.0).iter().map(|x| 3.0 * x + 1.0).collect();
        assert_eq!(out, JobOutput::Vector(expect));
        assert_eq!(report.tenant, "alice");
        assert_eq!(report.kind, "axpb");
        assert!(report.ready_s >= report.submit_s);
        assert_eq!(
            exec.metrics().counter_value("executor.jobs.completed"),
            Some(1)
        );
    }

    #[test]
    fn backpressure_sheds_beyond_queue_depth() {
        let exec = Executor::new(ExecutorConfig::default().queue_depth(4).paused());
        let t = exec.add_tenant("bursty", 1);
        let mut handles = Vec::new();
        for i in 0..4 {
            handles.push(
                exec.submit(
                    t,
                    Job::RowSum {
                        data: ramp(16, i as f32),
                    },
                )
                .unwrap(),
            );
        }
        let err = exec
            .submit(
                t,
                Job::RowSum {
                    data: ramp(16, 9.0),
                },
            )
            .unwrap_err();
        assert_eq!(
            err,
            SubmitError::QueueFull {
                tenant: "bursty".into(),
                depth: 4
            }
        );
        assert_eq!(
            exec.metrics()
                .counter_value("executor.tenant.bursty.rejected"),
            Some(1)
        );
        assert_eq!(exec.queue_depth(t), 4);
        exec.drain();
        // Draining frees the queue: the shed job can now be resubmitted.
        for h in handles {
            h.wait().unwrap();
        }
        exec.submit(
            t,
            Job::RowSum {
                data: ramp(16, 9.0),
            },
        )
        .unwrap();
        exec.drain();
        assert_eq!(
            exec.metrics().counter_value("executor.jobs.completed"),
            Some(5)
        );
    }

    #[test]
    fn paused_executor_coalesces_same_key_jobs() {
        let exec = Executor::new(ExecutorConfig::default().max_batch(8).paused());
        let t = exec.add_tenant("batcher", 1);
        let handles: Vec<_> = (0..6)
            .map(|i| {
                exec.submit(
                    t,
                    Job::Axpb {
                        a: 2.0,
                        b: 0.5,
                        data: ramp(16, i as f32),
                    },
                )
                .unwrap()
            })
            .collect();
        exec.drain();
        for (i, h) in handles.into_iter().enumerate() {
            let (out, report) = h.wait().unwrap();
            assert_eq!(report.batched, 6, "all six jobs fused into one launch");
            let expect: Vec<f32> = ramp(16, i as f32).iter().map(|x| 2.0 * x + 0.5).collect();
            assert_eq!(out, JobOutput::Vector(expect));
        }
        assert_eq!(exec.metrics().counter_value("executor.batches"), Some(1));
        assert_eq!(
            exec.metrics().counter_value("executor.coalesced_jobs"),
            Some(5)
        );
    }

    #[test]
    fn coalescing_stops_at_key_boundaries_preserving_fifo() {
        let exec = Executor::new(ExecutorConfig::default().max_batch(8).paused());
        let t = exec.add_tenant("mixed", 1);
        let a1 = exec
            .submit(
                t,
                Job::Axpb {
                    a: 1.0,
                    b: 0.0,
                    data: ramp(8, 0.0),
                },
            )
            .unwrap();
        let s1 = exec.submit(t, Job::RowSum { data: ramp(8, 1.0) }).unwrap();
        let a2 = exec
            .submit(
                t,
                Job::Axpb {
                    a: 1.0,
                    b: 0.0,
                    data: ramp(8, 2.0),
                },
            )
            .unwrap();
        exec.drain();
        // Three distinct launches: the RowSum between the Axpbs splits them.
        assert_eq!(exec.metrics().counter_value("executor.batches"), Some(3));
        for h in [a1, a2] {
            assert_eq!(h.wait().unwrap().1.batched, 1);
        }
        assert_eq!(s1.wait().unwrap().1.batched, 1);
    }

    #[test]
    fn wrr_interleaves_tenants_fifo_serves_arrival_order() {
        // One device and no coalescing: every job is its own launch, and
        // the shared compute engine serializes launches in dispatch order,
        // so `ready_s` ordering *is* the schedule. Arrival order is
        // a₁ a₂ b₁ b₂; WRR must interleave (a₁ b₁ a₂ b₂), FIFO must not.
        for mode in [SchedulingMode::WeightedRoundRobin, SchedulingMode::Fifo] {
            let exec = Executor::new(
                ExecutorConfig::default()
                    .devices(1)
                    .scheduling(mode)
                    .max_batch(1)
                    .paused(),
            );
            let a = exec.add_tenant("a", 1);
            let b = exec.add_tenant("b", 1);
            let a_handles: Vec<_> = (0..2)
                .map(|i| {
                    exec.submit(
                        a,
                        Job::RowSum {
                            data: ramp(64, i as f32),
                        },
                    )
                    .unwrap()
                })
                .collect();
            let b_handles: Vec<_> = (0..2)
                .map(|i| {
                    exec.submit(
                        b,
                        Job::RowSum {
                            data: ramp(64, 9.0 + i as f32),
                        },
                    )
                    .unwrap()
                })
                .collect();
            exec.drain();
            let ready: Vec<f64> = a_handles
                .into_iter()
                .chain(b_handles)
                .map(|h| h.wait().unwrap().1.ready_s)
                .collect();
            let (a2, b1) = (ready[1], ready[2]);
            match mode {
                SchedulingMode::WeightedRoundRobin => assert!(
                    b1 < a2,
                    "round-robin serves b's first job before a's second (b1 {b1}, a2 {a2})"
                ),
                SchedulingMode::Fifo => assert!(
                    a2 < b1,
                    "fifo drains a's backlog before touching b (a2 {a2}, b1 {b1})"
                ),
            }
            assert_eq!(exec.metrics().counter_value("executor.batches"), Some(4));
            assert_eq!(
                exec.metrics().counter_value("executor.jobs.completed"),
                Some(4)
            );
        }
    }

    #[test]
    fn wrr_quantum_does_not_go_stale_across_idle_periods() {
        // Regression test: a tenant that drained its queue *mid-quantum*
        // used to keep the leftover `rr_turns_left`, so its next burst —
        // possibly much later — resumed the old, partially-spent quantum
        // instead of a fresh `weight`-sized one, and a light tenant's job
        // split the heavy tenant's burst in half. With the fix, draining
        // mid-quantum forfeits the remainder and advances the cursor, so
        // the heavy tenant's next visit is one uninterrupted weight-4 run.
        let exec = Executor::new(ExecutorConfig::default().devices(1).max_batch(1).paused());
        let heavy = exec.add_tenant("heavy", 4);
        let light = exec.add_tenant("light", 1);

        // Round 1: the heavy tenant drains after 2 of its 4 turns.
        let warmup: Vec<_> = (0..2)
            .map(|i| {
                exec.submit(
                    heavy,
                    Job::RowSum {
                        data: ramp(64, i as f32),
                    },
                )
                .unwrap()
            })
            .collect();
        exec.drain();
        for h in warmup {
            h.wait().unwrap();
        }

        // Round 2: heavy floods 4 jobs, light submits 1. As in
        // `wrr_interleaves_tenants_fifo_serves_arrival_order`, one device
        // plus no coalescing means `ready_s` ordering is the schedule.
        exec.pause();
        let heavy_handles: Vec<_> = (0..4)
            .map(|i| {
                exec.submit(
                    heavy,
                    Job::RowSum {
                        data: ramp(64, 10.0 + i as f32),
                    },
                )
                .unwrap()
            })
            .collect();
        let light_handle = exec
            .submit(
                light,
                Job::RowSum {
                    data: ramp(64, 99.0),
                },
            )
            .unwrap();
        exec.drain();

        let heavy_ready: Vec<f64> = heavy_handles
            .into_iter()
            .map(|h| h.wait().unwrap().1.ready_s)
            .collect();
        let light_ready = light_handle.wait().unwrap().1.ready_s;
        let split = heavy_ready.iter().filter(|&&r| r < light_ready).count();
        assert!(
            split == 0 || split == heavy_ready.len(),
            "the light job must not split the heavy tenant's quantum: \
             {split} of {} heavy jobs ran before it (stale rr_turns_left)",
            heavy_ready.len()
        );
    }

    #[test]
    fn slo_misses_and_shed_rate_are_tracked() {
        // An impossible 0-second target: every completed job misses it.
        let exec = Executor::new(
            ExecutorConfig::default()
                .queue_depth(2)
                .latency_slo(0.0)
                .paused(),
        );
        let t = exec.add_tenant("slo", 1);
        let mut handles = Vec::new();
        for i in 0..2 {
            handles.push(
                exec.submit(
                    t,
                    Job::RowSum {
                        data: ramp(16, i as f32),
                    },
                )
                .unwrap(),
            );
        }
        // Two shed submissions against two accepted: shed rate 0.5.
        for _ in 0..2 {
            exec.submit(
                t,
                Job::RowSum {
                    data: ramp(16, 9.0),
                },
            )
            .unwrap_err();
        }
        exec.drain();
        for h in handles {
            h.wait().unwrap();
        }
        assert_eq!(
            exec.metrics().counter_value("executor.tenant.slo.slo_miss"),
            Some(2),
            "every job misses a 0-second target"
        );
        assert_eq!(exec.metrics().counter_value("executor.slo_misses"), Some(2));
        let shed = exec.metrics().snapshot()["executor.tenant.slo.shed_rate"]
            .as_gauge()
            .unwrap();
        assert!((shed - 0.5).abs() < 1e-12, "shed_rate={shed}");

        let slo = exec.slo_summary().expect("target configured");
        assert_eq!(slo.deadline_misses, 2);
        assert_eq!(slo.jobs, 2);
        assert_eq!(slo.shed, 2);
        assert!((slo.miss_rate() - 1.0).abs() < 1e-12);
        assert!((slo.shed_rate() - 0.5).abs() < 1e-12);

        // No target configured → no summary, no misses counted.
        let plain = Executor::new(ExecutorConfig::default());
        let t = plain.add_tenant("p", 1);
        plain
            .submit(
                t,
                Job::RowSum {
                    data: ramp(16, 0.0),
                },
            )
            .unwrap()
            .wait()
            .unwrap();
        assert!(plain.slo_summary().is_none());
        assert_eq!(
            plain.metrics().counter_value("executor.slo_misses"),
            Some(0)
        );
    }

    #[test]
    fn unknown_tenant_and_shutdown_are_rejected() {
        let exec = Executor::new(ExecutorConfig::default());
        let err = exec
            .submit(TenantId(7), Job::RowSum { data: ramp(4, 0.0) })
            .unwrap_err();
        assert_eq!(err, SubmitError::UnknownTenant);
    }

    #[test]
    fn drop_drains_queued_jobs() {
        let exec = Executor::new(ExecutorConfig::default().paused());
        let t = exec.add_tenant("tail", 1);
        let h = exec
            .submit(
                t,
                Job::RowSum {
                    data: ramp(32, 0.0),
                },
            )
            .unwrap();
        drop(exec);
        // Shutdown overrides pause and drains before join: the handle
        // resolves rather than dangling.
        let (out, _) = h.wait().unwrap();
        let expect: f32 = ramp(32, 0.0).iter().sum();
        assert_eq!(out, JobOutput::Scalar(expect));
    }

    #[test]
    fn stale_epoch_jobs_fall_back_to_service_time() {
        let exec = Executor::new(ExecutorConfig::default().paused());
        let t = exec.add_tenant("longlived", 1);
        // Warm the program so post-reset latency is pure service time.
        let warm = exec
            .submit(
                t,
                Job::RowSum {
                    data: ramp(16, 0.0),
                },
            )
            .unwrap();
        exec.drain();
        warm.wait().unwrap();
        exec.pause();
        let h = exec
            .submit(
                t,
                Job::RowSum {
                    data: ramp(16, 1.0),
                },
            )
            .unwrap();
        // A maintenance epoch reset lands between submit and dispatch.
        exec.context().platform().reset_clocks();
        exec.drain();
        let (_, report) = h.wait().unwrap();
        assert!(
            report.stale_epoch,
            "epoch changed between submit and dispatch"
        );
        // Latency must not mix clocks from different epochs: it is the
        // service interval, not (new-epoch ready − old-epoch submit).
        assert!((report.latency_s() - (report.ready_s - report.start_s)).abs() < 1e-12);
        assert!(report.latency_s() >= 0.0);
        assert_eq!(
            exec.metrics().counter_value("executor.stale_epoch_jobs"),
            Some(1)
        );
        // Counters survive the epoch reset (completed counts both jobs).
        assert_eq!(
            exec.metrics().counter_value("executor.jobs.completed"),
            Some(2)
        );
    }
}
