//! The hpcdash dashboard — the paper's contribution, in Rust.
//!
//! Structure mirrors the paper's code-structure rule (§2.3): every feature
//! is one backend API route module under [`api`] paired with one frontend
//! renderer under [`widgets`] (homepage components) or [`pages`] (full-page
//! apps). Routes return JSON; pages are HTML shells whose data arrives from
//! those routes, so the dashboard paints instantly and refreshes per
//! component.
//!
//! Cross-cutting services live at the top level: per-source cache policy
//! ([`config`]), identity + privacy ([`auth`]), the efficiency engine
//! ([`efficiency`]), friendly pending-reason translation ([`reasons`]),
//! colour-coding rules ([`colors`]), chart data preparation ([`charts`]),
//! aggregate job metrics ([`metrics`]), and a small ERB-style template
//! engine ([`template`]).

#![cfg_attr(test, allow(clippy::disallowed_types, clippy::disallowed_macros))]

pub mod api;
pub mod app;
pub mod auth;
pub mod charts;
pub mod colors;
pub mod config;
pub mod ctx;
pub mod efficiency;
pub mod metrics;
pub mod pages;
pub mod reasons;
pub mod template;
pub mod widgets;

pub use app::Dashboard;
pub use config::{CachePolicy, DashboardConfig, FeatureFlags, ResiliencePolicy};
pub use ctx::DashboardContext;
