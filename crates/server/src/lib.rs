//! # gdm-server — the multi-tenant query server
//!
//! The paper compares nine graph databases as *systems serving
//! clients*, not as in-process libraries; this crate closes that gap.
//! It fronts any engine emulation with a TCP server whose sessions
//! authenticate to a **tenant**, and layers three serving concerns the
//! single-process facade never needed:
//!
//! - **Admission control** ([`Admission`]): a per-tenant in-flight cap
//!   and a global slots-plus-bounded-queue, both *shed-on-full* with a
//!   structured [`protocol::Overloaded`] reply — overload produces
//!   fast, honest rejections instead of unbounded queueing.
//! - **Fair budgets**: every query runs under a
//!   [`gdm_govern::ExecutionGuard`] drawing credits from its tenant's
//!   [`gdm_govern::TenantAllowance`], refilled by a pacer thread
//!   through [`gdm_govern::BudgetPool`]'s weighted max-min split. A
//!   greedy tenant exhausts its own allowance (queries return
//!   `Interrupted { reason: "tenant allowance exhausted" }`) while a
//!   light tenant's credits — and latency — survive.
//! - **A shared plan cache** ([`gdm_query::PlanCache`]): sound here
//!   precisely because the server executes over an immutable
//!   [`gdm_engines::ServingSnapshot`], so cached index domains can
//!   never go stale.
//!
//! Wire format and the full command set live in [`protocol`]; the
//! fairness math and keying rationale are written up in DESIGN.md §12.
//!
//! ## Serving an engine
//!
//! ```no_run
//! use gdm_server::{serve, Client, ServerConfig, TenantConfig};
//! use gdm_engines::{make_engine, EngineKind, GraphEngine};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let dir = std::env::temp_dir().join("gdm-serve-doc");
//! # std::fs::create_dir_all(&dir)?;
//! let db = make_engine(EngineKind::Neo4j, &dir)?;
//! let mut config = ServerConfig::default();
//! config.tenants.push(TenantConfig::new("alpha", 3));
//!
//! let handle = serve(db.serving_snapshot()?, config)?;
//! let mut client = Client::connect(handle.addr())?;
//! client.hello("alpha", None)?;
//! let reply = client.query("MATCH (p:Person) RETURN p.name")?;
//! println!("{reply:?}");
//! client.goodbye()?;
//! handle.shutdown();
//! # Ok(()) }
//! ```

pub mod admission;
pub mod chaos;
pub mod client;
pub mod protocol;
pub mod refresh;
mod server;
mod session;

pub use admission::{Admission, Permit, Shed};
pub use chaos::{ChaosConfig, ChaosProxy, ChaosStats, Fault};
pub use client::{Client, Deadlines, RetryingClient};
pub use protocol::{HealthReply, Request, Response, StatsReply};
pub use refresh::RefreshPolicy;
pub use server::{serve, ServerConfig, ServerHandle, TenantConfig, REFRESH_PRINCIPAL};
