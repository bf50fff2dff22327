//! The session abstraction: lets a workload's host program run unchanged in
//! any environment — solo (plain GPU), redundant (DCLS protocol), or any
//! future backend.
//!
//! Extracted from the Rodinia benchmark harness so the fault-campaign
//! engine, the COTS end-to-end model and the benches all drive the same
//! five-step host-program shape (allocate, upload, launch, sync, read).

use higpu_core::redundancy::{RBuf, RedundancyError, RedundantExecutor};
use higpu_core::vote::VoteOutcome;
use higpu_sim::gpu::{DevPtr, Gpu, SimError};
use higpu_sim::kernel::{Dim3, KernelLaunch, LaunchConfig};
use higpu_sim::program::Program;
use std::fmt;
use std::sync::Arc;

/// Handle to a logical device buffer owned by a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufId(pub(crate) usize);

impl BufId {
    /// The buffer's slot within its owning session. Session backends
    /// outside this crate (e.g. the pipeline frame executor's channel
    /// session) key their own buffer tables with it.
    pub fn index(self) -> usize {
        self.0
    }

    /// The handle for slot `index` — the constructor such external session
    /// backends hand back from their `alloc_words`.
    pub fn from_index(index: usize) -> Self {
        BufId(index)
    }
}

/// A kernel parameter referencing session buffers.
#[derive(Debug, Clone, Copy)]
pub enum SParam {
    /// Address of a buffer.
    Buf(BufId),
    /// Address of a buffer plus a word offset.
    BufOffset(BufId, u32),
    /// Raw word.
    U32(u32),
    /// Signed integer.
    I32(i32),
    /// Float (raw bits).
    F32(f32),
}

/// Errors surfaced while running a workload.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionError {
    /// Device error.
    Sim(SimError),
    /// Redundancy-protocol error.
    Redundancy(RedundancyError),
    /// Redundant replicas disagreed on a host-read value (fault detected).
    ReplicaMismatch {
        /// Word index of the first disagreement.
        first_word: usize,
    },
    /// The host program rejected a value read back from the device as
    /// outside its legal range: a host-side plausibility check caught
    /// corrupted data (campaigns classify it as a detection).
    Implausible {
        /// What was checked.
        what: &'static str,
        /// The offending value.
        value: u64,
    },
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Sim(e) => write!(f, "device error: {e}"),
            SessionError::Redundancy(e) => write!(f, "redundancy error: {e}"),
            SessionError::ReplicaMismatch { first_word } => {
                write!(f, "replica mismatch at word {first_word}")
            }
            SessionError::Implausible { what, value } => {
                write!(f, "implausible {what} {value} read back from the device")
            }
        }
    }
}

impl std::error::Error for SessionError {}

impl From<SimError> for SessionError {
    fn from(e: SimError) -> Self {
        SessionError::Sim(e)
    }
}

impl From<RedundancyError> for SessionError {
    fn from(e: RedundancyError) -> Self {
        SessionError::Redundancy(e)
    }
}

/// The environment a workload's host program runs in.
///
/// Workloads allocate buffers, upload data, launch kernels (synchronizing
/// between dependent launches) and read results back — the same five-step
/// shape as a CUDA host program.
pub trait GpuSession {
    /// Allocates a logical buffer of `words` 32-bit words.
    ///
    /// # Errors
    ///
    /// Returns [`SessionError::Sim`] when device memory is exhausted.
    fn alloc_words(&mut self, words: u32) -> Result<BufId, SessionError>;

    /// Uploads words into a buffer.
    ///
    /// # Errors
    ///
    /// Propagates backend errors.
    fn write_u32(&mut self, buf: BufId, data: &[u32]) -> Result<(), SessionError>;

    /// Uploads floats into a buffer.
    ///
    /// # Errors
    ///
    /// Propagates backend errors.
    fn write_f32(&mut self, buf: BufId, data: &[f32]) -> Result<(), SessionError>;

    /// Launches a kernel (asynchronously; see [`GpuSession::sync`]).
    ///
    /// # Errors
    ///
    /// Propagates launch errors (e.g. unschedulable geometry).
    fn launch(
        &mut self,
        program: &Arc<Program>,
        grid: Dim3,
        block: Dim3,
        shared_mem_bytes: u32,
        params: &[SParam],
    ) -> Result<(), SessionError>;

    /// Waits for all launched kernels to complete.
    ///
    /// # Errors
    ///
    /// Propagates device stalls.
    fn sync(&mut self) -> Result<(), SessionError>;

    /// Reads `words` words back (synchronizes first). In redundant sessions
    /// the replicas are compared; a disagreement is reported as
    /// [`SessionError::ReplicaMismatch`] (or recorded, for sessions built
    /// with [`RedundantSession::tolerant`]).
    ///
    /// # Errors
    ///
    /// Propagates backend errors and replica mismatches.
    fn read_u32(&mut self, buf: BufId, words: usize) -> Result<Vec<u32>, SessionError>;

    /// Reads `words` floats back (bitwise-compared in redundant sessions).
    ///
    /// # Errors
    ///
    /// Propagates backend errors and replica mismatches.
    fn read_f32(&mut self, buf: BufId, words: usize) -> Result<Vec<f32>, SessionError> {
        Ok(self
            .read_u32(buf, words)?
            .into_iter()
            .map(f32::from_bits)
            .collect())
    }
}

/// Non-redundant session over a plain GPU (baselines, profiling).
#[derive(Debug)]
pub struct SoloSession<'g> {
    gpu: &'g mut Gpu,
    buffers: Vec<DevPtr>,
    pending: bool,
}

impl<'g> SoloSession<'g> {
    /// Wraps a GPU.
    pub fn new(gpu: &'g mut Gpu) -> Self {
        Self {
            gpu,
            buffers: Vec::new(),
            pending: false,
        }
    }

    /// The underlying GPU.
    pub fn gpu(&self) -> &Gpu {
        self.gpu
    }
}

impl GpuSession for SoloSession<'_> {
    fn alloc_words(&mut self, words: u32) -> Result<BufId, SessionError> {
        let ptr = self.gpu.alloc_words(words)?;
        self.buffers.push(ptr);
        Ok(BufId(self.buffers.len() - 1))
    }

    fn write_u32(&mut self, buf: BufId, data: &[u32]) -> Result<(), SessionError> {
        self.gpu.write_u32(self.buffers[buf.0], data);
        Ok(())
    }

    fn write_f32(&mut self, buf: BufId, data: &[f32]) -> Result<(), SessionError> {
        self.gpu.write_f32(self.buffers[buf.0], data);
        Ok(())
    }

    fn launch(
        &mut self,
        program: &Arc<Program>,
        grid: Dim3,
        block: Dim3,
        shared_mem_bytes: u32,
        params: &[SParam],
    ) -> Result<(), SessionError> {
        let mut cfg = LaunchConfig::new(grid, block).shared_mem(shared_mem_bytes);
        for p in params {
            cfg = match *p {
                SParam::Buf(b) => cfg.param_u32(self.buffers[b.0].0),
                SParam::BufOffset(b, w) => cfg.param_u32(self.buffers[b.0].offset_words(w).0),
                SParam::U32(v) => cfg.param_u32(v),
                SParam::I32(v) => cfg.param_i32(v),
                SParam::F32(v) => cfg.param_f32(v),
            };
        }
        self.gpu
            .launch(KernelLaunch::new(program.clone(), cfg).tag(program.name().to_string()))?;
        self.pending = true;
        Ok(())
    }

    fn sync(&mut self) -> Result<(), SessionError> {
        if self.pending {
            self.gpu.run_to_idle()?;
            self.pending = false;
        }
        Ok(())
    }

    fn read_u32(&mut self, buf: BufId, words: usize) -> Result<Vec<u32>, SessionError> {
        self.sync()?;
        Ok(self.gpu.read_u32(self.buffers[buf.0], words))
    }
}

/// What a redundant session does when replicas disagree on a read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MismatchPolicy {
    /// Surface [`SessionError::ReplicaMismatch`] on any disagreement (the
    /// conservative DCLS recovery path: the computation is aborted and
    /// re-executed, regardless of whether an N ≥ 3 majority could have
    /// outvoted the corruption).
    Fail,
    /// Record the disagreement and hand back the **voted** data so the
    /// host program runs to completion — the form fault-injection campaigns
    /// need to classify a trial as corrected vs. detected vs. silently
    /// corrupted. For two replicas the voted data on a (necessarily tied)
    /// disagreement is replica 0's, exactly as classic DCLS hands back.
    Record,
}

/// Redundant session: every operation follows the N-modular redundancy
/// protocol (per-replica allocation, copies and launches; majority vote on
/// read-back — the two-replica vote degenerates to the DCLS compare).
#[derive(Debug)]
pub struct RedundantSession<'g, 'e> {
    exec: &'e mut RedundantExecutor<'g>,
    buffers: Vec<RBuf>,
    pending: bool,
    on_mismatch: MismatchPolicy,
    corrected_reads: usize,
    tied_reads: usize,
    first_mismatch: Option<usize>,
    bytes_uploaded: u64,
    bytes_read_back: u64,
}

impl<'g, 'e> RedundantSession<'g, 'e> {
    /// Wraps a redundant executor. Replica disagreements abort the host
    /// program with [`SessionError::ReplicaMismatch`].
    pub fn new(exec: &'e mut RedundantExecutor<'g>) -> Self {
        Self::with_policy(exec, MismatchPolicy::Fail)
    }

    /// Wraps a redundant executor in mismatch-tolerant mode: replica
    /// disagreements are recorded (see
    /// [`RedundantSession::mismatched_reads`],
    /// [`RedundantSession::corrected_reads`],
    /// [`RedundantSession::tied_reads`]) and the voted data is returned, so
    /// the host program runs to completion. Fault-injection campaigns use
    /// this to classify complete trials.
    pub fn tolerant(exec: &'e mut RedundantExecutor<'g>) -> Self {
        Self::with_policy(exec, MismatchPolicy::Record)
    }

    fn with_policy(exec: &'e mut RedundantExecutor<'g>, on_mismatch: MismatchPolicy) -> Self {
        Self {
            exec,
            buffers: Vec::new(),
            pending: false,
            on_mismatch,
            corrected_reads: 0,
            tied_reads: 0,
            first_mismatch: None,
            bytes_uploaded: 0,
            bytes_read_back: 0,
        }
    }

    /// Number of reads on which the replicas disagreed, whether outvoted or
    /// tied (only ever non-zero for sessions built with
    /// [`RedundantSession::tolerant`]).
    pub fn mismatched_reads(&self) -> usize {
        self.corrected_reads + self.tied_reads
    }

    /// Disagreeing reads fully settled by a strict replica majority (the
    /// NMR forward-recovery case; always 0 for two replicas).
    pub fn corrected_reads(&self) -> usize {
        self.corrected_reads
    }

    /// Disagreeing reads with at least one word no strict majority settled
    /// (fail-stop detections; every two-replica disagreement lands here).
    pub fn tied_reads(&self) -> usize {
        self.tied_reads
    }

    /// Word index of the first disagreement observed, if any.
    pub fn first_mismatch(&self) -> Option<usize> {
        self.first_mismatch
    }

    /// Host→device bytes uploaded so far, summed over all replicas — the
    /// DCLS protocol transfers every input once *per replica*, so this is
    /// `N ×` the logical upload volume.
    pub fn bytes_uploaded(&self) -> u64 {
        self.bytes_uploaded
    }

    /// Device→host bytes read back so far, summed over all replicas (every
    /// read-back fetches all N copies for the compare/vote).
    pub fn bytes_read_back(&self) -> u64 {
        self.bytes_read_back
    }
}

impl GpuSession for RedundantSession<'_, '_> {
    fn alloc_words(&mut self, words: u32) -> Result<BufId, SessionError> {
        let b = self.exec.alloc_words(words)?;
        self.buffers.push(b);
        Ok(BufId(self.buffers.len() - 1))
    }

    fn write_u32(&mut self, buf: BufId, data: &[u32]) -> Result<(), SessionError> {
        let b = self.buffers[buf.0].clone();
        self.exec.write_u32(&b, data)?;
        self.bytes_uploaded += 4 * data.len() as u64 * u64::from(self.exec.replicas());
        Ok(())
    }

    fn write_f32(&mut self, buf: BufId, data: &[f32]) -> Result<(), SessionError> {
        let b = self.buffers[buf.0].clone();
        self.exec.write_f32(&b, data)?;
        self.bytes_uploaded += 4 * data.len() as u64 * u64::from(self.exec.replicas());
        Ok(())
    }

    fn launch(
        &mut self,
        program: &Arc<Program>,
        grid: Dim3,
        block: Dim3,
        shared_mem_bytes: u32,
        params: &[SParam],
    ) -> Result<(), SessionError> {
        // Disjoint field borrows: the executor materializes each replica's
        // parameter words into its reusable scratch while reading the
        // session's buffer table in place — no per-launch clone of the
        // (potentially large) table, no per-replica parameter vector.
        let Self { exec, buffers, .. } = self;
        let replicas = exec.replicas() as usize;
        exec.launch_with(program, grid, block, shared_mem_bytes, &mut |r, out| {
            for p in params {
                match *p {
                    SParam::Buf(b) | SParam::BufOffset(b, _) => {
                        let rb = &buffers[b.0];
                        if rb.replicas() != replicas {
                            return Err(RedundancyError::BufferArity {
                                buffer: rb.replicas(),
                                executor: replicas,
                            });
                        }
                        let offset = match *p {
                            SParam::BufOffset(_, w) => w,
                            _ => 0,
                        };
                        out.push(rb.ptr(r).offset_words(offset).0);
                    }
                    SParam::U32(v) => out.push(v),
                    SParam::I32(v) => out.push(v as u32),
                    SParam::F32(v) => out.push(v.to_bits()),
                }
            }
            Ok(())
        })?;
        self.pending = true;
        Ok(())
    }

    fn sync(&mut self) -> Result<(), SessionError> {
        if self.pending {
            self.exec.sync()?;
            self.pending = false;
        }
        Ok(())
    }

    fn read_u32(&mut self, buf: BufId, words: usize) -> Result<Vec<u32>, SessionError> {
        self.sync()?;
        self.bytes_read_back += 4 * words as u64 * u64::from(self.exec.replicas());
        let Self { exec, buffers, .. } = self;
        let vote = exec.read_vote_u32(&buffers[buf.0], words)?;
        match vote.outcome {
            VoteOutcome::Unanimous => Ok(vote.value),
            outcome => match self.on_mismatch {
                MismatchPolicy::Fail => Err(SessionError::ReplicaMismatch {
                    first_word: outcome.first_disagreement().expect("not unanimous"),
                }),
                MismatchPolicy::Record => {
                    if outcome.is_corrected() {
                        self.corrected_reads += 1;
                    } else {
                        self.tied_reads += 1;
                    }
                    if self.first_mismatch.is_none() {
                        self.first_mismatch = outcome.first_disagreement();
                    }
                    Ok(vote.value)
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use higpu_core::redundancy::RedundancyMode;
    use higpu_sim::builder::KernelBuilder;
    use higpu_sim::config::GpuConfig;

    fn double_kernel() -> Arc<Program> {
        let mut b = KernelBuilder::new("double");
        let buf = b.param(0);
        let i = b.global_tid_x();
        let a = b.addr_w(buf, i);
        let v = b.ldg(a, 0);
        let d = b.iadd(v, v);
        b.stg(a, 0, d);
        b.build().expect("valid").into_shared()
    }

    #[test]
    fn solo_and_redundant_sessions_agree() {
        let prog = double_kernel();
        let data: Vec<u32> = (0..64).collect();

        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        let mut solo = SoloSession::new(&mut gpu);
        let b = solo.alloc_words(64).expect("alloc");
        solo.write_u32(b, &data).expect("write");
        solo.launch(&prog, Dim3::x(2), Dim3::x(32), 0, &[SParam::Buf(b)])
            .expect("launch");
        let solo_out = solo.read_u32(b, 64).expect("read");

        let mut gpu2 = Gpu::new(GpuConfig::paper_6sm());
        let mut exec =
            RedundantExecutor::new(&mut gpu2, RedundancyMode::srrs_default(6)).expect("mode");
        let mut red = RedundantSession::new(&mut exec);
        let b = red.alloc_words(64).expect("alloc");
        red.write_u32(b, &data).expect("write");
        red.launch(&prog, Dim3::x(2), Dim3::x(32), 0, &[SParam::Buf(b)])
            .expect("launch");
        let red_out = red.read_u32(b, 64).expect("read");

        assert_eq!(solo_out, red_out);
        assert_eq!(solo_out[5], 10);
        // DCLS byte accounting: 64 words uploaded and read back, twice (one
        // transfer per replica in each direction).
        assert_eq!(red.bytes_uploaded(), 64 * 4 * 2);
        assert_eq!(red.bytes_read_back(), 64 * 4 * 2);
    }

    #[test]
    fn strict_session_fails_on_mismatch_but_tolerant_records_it() {
        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        let mut exec =
            RedundantExecutor::new(&mut gpu, RedundancyMode::srrs_default(6)).expect("mode");
        let mut s = RedundantSession::new(&mut exec);
        let b = s.alloc_words(8).expect("alloc");
        s.write_u32(b, &[1, 2, 3, 4, 5, 6, 7, 8]).expect("write");
        // Corrupt replica 1 behind the session's back (simulating a fault).
        let p1 = s.buffers[0].ptr(1);
        s.exec.gpu_mut().write_u32(p1, &[9]);
        let err = s.read_u32(b, 8).expect_err("strict must fail");
        assert_eq!(err, SessionError::ReplicaMismatch { first_word: 0 });

        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        let mut exec =
            RedundantExecutor::new(&mut gpu, RedundancyMode::srrs_default(6)).expect("mode");
        let mut s = RedundantSession::tolerant(&mut exec);
        let b = s.alloc_words(8).expect("alloc");
        s.write_u32(b, &[1, 2, 3, 4, 5, 6, 7, 8]).expect("write");
        let p1 = s.buffers[0].ptr(1);
        s.exec.gpu_mut().write_u32(p1, &[9]);
        let out = s.read_u32(b, 8).expect("tolerant continues");
        assert_eq!(out[0], 1, "replica 0's data is handed back");
        assert_eq!(s.mismatched_reads(), 1);
        assert_eq!(s.tied_reads(), 1, "a 2-replica disagreement always ties");
        assert_eq!(s.corrected_reads(), 0);
        assert_eq!(s.first_mismatch(), Some(0));
    }

    #[test]
    fn tolerant_tmr_session_returns_the_voted_value() {
        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        let mut exec = RedundantExecutor::new(
            &mut gpu,
            RedundancyMode::Srrs {
                start_sms: vec![0, 2, 4],
            },
        )
        .expect("mode");
        let mut s = RedundantSession::tolerant(&mut exec);
        let b = s.alloc_words(8).expect("alloc");
        s.write_u32(b, &[1, 2, 3, 4, 5, 6, 7, 8]).expect("write");
        // Corrupt replica 0 — the classic DCLS session would hand back the
        // *corrupted* copy; the voter must restore the clean data.
        let p0 = s.buffers[0].ptr(0);
        s.exec.gpu_mut().write_u32(p0, &[99]);
        let out = s.read_u32(b, 8).expect("tolerant continues");
        assert_eq!(out, vec![1, 2, 3, 4, 5, 6, 7, 8], "2-of-3 vote corrects");
        assert_eq!(s.corrected_reads(), 1);
        assert_eq!(s.tied_reads(), 0);
        assert_eq!(s.mismatched_reads(), 1);
        assert_eq!(s.first_mismatch(), Some(0));

        // A strict TMR session still fail-stops on any dissent.
        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        let mut exec = RedundantExecutor::new(
            &mut gpu,
            RedundancyMode::Srrs {
                start_sms: vec![0, 2, 4],
            },
        )
        .expect("mode");
        let mut s = RedundantSession::new(&mut exec);
        let b = s.alloc_words(8).expect("alloc");
        s.write_u32(b, &[1, 2, 3, 4, 5, 6, 7, 8]).expect("write");
        let p0 = s.buffers[0].ptr(0);
        s.exec.gpu_mut().write_u32(p0, &[99]);
        let err = s.read_u32(b, 8).expect_err("strict fails on dissent");
        assert_eq!(err, SessionError::ReplicaMismatch { first_word: 0 });
    }
}
