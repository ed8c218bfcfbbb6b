//! Scheme selection for experiments.

use crate::config::SystemConfig;
use nomad_core::{CachingPolicy, NomadConfig, NomadScheme};
use nomad_dcache::{
    Banshee, BansheeConfig, Baseline, DcScheme, Ideal, Tdram, TdramConfig, Tid, TidConfig,
};
use serde::{Deserialize, Serialize};

/// Which DRAM-cache scheme a run uses — the five bars of Fig. 9, the
/// Banshee/TDRAM head-to-head contenders, plus parameterized variants
/// for the sensitivity studies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SchemeSpec {
    /// Off-package memory only (lower bound).
    Baseline,
    /// HW-based tags-in-DRAM (Unison-style).
    Tid,
    /// TiD with an explicit configuration.
    TidWith(TidSpec),
    /// HW-based cache with per-row on-die tags (tag-enhanced DRAM).
    Tdram,
    /// TDRAM with an explicit configuration.
    TdramWith(TdramSpec),
    /// Page-granular TLB-tracked tags with frequency-gated admission.
    Banshee,
    /// Banshee with an explicit configuration.
    BansheeWith(BansheeSpec),
    /// Blocking OS-managed scheme (state of the art before NOMAD).
    Tdc,
    /// The paper's contribution, default configuration.
    Nomad,
    /// NOMAD with explicit PCSHR/buffer/back-end parameters.
    NomadWith(NomadSpec),
    /// Zero-cost OS-managed cache (upper bound; Table I measurement).
    Ideal,
}

/// Parameterization of a NOMAD/TDC variant (capacity comes from the
/// [`SystemConfig`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NomadSpec {
    /// PCSHRs per back-end.
    pub pcshrs: usize,
    /// Page copy buffers per back-end (`None` = coupled).
    pub buffers: Option<usize>,
    /// Back-end count (1 = centralized).
    pub backends: usize,
    /// Critical-data-first enabled.
    pub critical_data_first: bool,
    /// Admit pages only on their second touch (selective caching).
    pub second_touch_policy: bool,
}

impl Default for NomadSpec {
    fn default() -> Self {
        let paper = NomadConfig::nomad(0);
        NomadSpec {
            pcshrs: paper.pcshrs,
            buffers: paper.buffers,
            backends: paper.backends,
            critical_data_first: paper.critical_data_first,
            second_touch_policy: paper.policy == CachingPolicy::SecondTouch,
        }
    }
}

/// Parameterization of a TiD variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TidSpec {
    /// Cache-line size in bytes.
    pub line_bytes: u64,
    /// Associativity.
    pub assoc: usize,
    /// MSHR count.
    pub mshrs: usize,
}

impl Default for TidSpec {
    fn default() -> Self {
        let paper = TidConfig::paper(0);
        TidSpec {
            line_bytes: paper.line_bytes,
            assoc: paper.assoc,
            mshrs: paper.mshrs,
        }
    }
}

/// Parameterization of a TDRAM variant (capacity comes from the
/// [`SystemConfig`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TdramSpec {
    /// MSHR count.
    pub mshrs: usize,
    /// Fill-buffer service latency in cycles.
    pub buffer_latency: u64,
}

impl Default for TdramSpec {
    fn default() -> Self {
        let paper = TdramConfig::paper(0);
        TdramSpec {
            mshrs: paper.mshrs,
            buffer_latency: paper.buffer_latency,
        }
    }
}

/// Parameterization of a Banshee variant (capacity comes from the
/// [`SystemConfig`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BansheeSpec {
    /// Set associativity of the page cache.
    pub ways: usize,
    /// Sample one in `sample_rate` accesses for frequency tracking.
    pub sample_rate: u64,
    /// Admission margin over the victim's frequency.
    pub admit_threshold: u32,
    /// Buffered tag-table updates flushed together.
    pub tag_buffer_entries: usize,
}

impl Default for BansheeSpec {
    fn default() -> Self {
        let paper = BansheeConfig::paper(0);
        BansheeSpec {
            ways: paper.ways,
            sample_rate: paper.sample_rate,
            admit_threshold: paper.admit_threshold,
            tag_buffer_entries: paper.tag_buffer_entries,
        }
    }
}

impl SchemeSpec {
    /// Short display label.
    pub fn label(&self) -> &'static str {
        match self {
            SchemeSpec::Baseline => "Baseline",
            SchemeSpec::Tid | SchemeSpec::TidWith(_) => "TiD",
            SchemeSpec::Tdram | SchemeSpec::TdramWith(_) => "TDRAM",
            SchemeSpec::Banshee | SchemeSpec::BansheeWith(_) => "Banshee",
            SchemeSpec::Tdc => "TDC",
            SchemeSpec::Nomad | SchemeSpec::NomadWith(_) => "NOMAD",
            SchemeSpec::Ideal => "Ideal",
        }
    }

    /// The one spelling of this scheme that jobs are keyed on: an
    /// `XWith(XSpec::default())` is `X` (which [`build`](Self::build)
    /// builds as exactly that), and a NOMAD variant with one copy
    /// buffer per PCSHR is the coupled `buffers: None`. Spellings that
    /// build the same simulator share one key, stored report and memo
    /// entry.
    pub fn canonical(&self) -> SchemeSpec {
        match *self {
            SchemeSpec::TidWith(t) if t == TidSpec::default() => SchemeSpec::Tid,
            SchemeSpec::TdramWith(t) if t == TdramSpec::default() => SchemeSpec::Tdram,
            SchemeSpec::BansheeWith(b) if b == BansheeSpec::default() => SchemeSpec::Banshee,
            SchemeSpec::NomadWith(n) if n.buffers == Some(n.pcshrs) => {
                SchemeSpec::NomadWith(NomadSpec { buffers: None, ..n }).canonical()
            }
            SchemeSpec::NomadWith(n) if n == NomadSpec::default() => SchemeSpec::Nomad,
            ref other => other.clone(),
        }
    }

    /// Instantiate the scheme for `cfg`. A plain `X` builds as
    /// `XWith(XSpec::default())`, so the two spellings cannot drift
    /// apart.
    pub fn build(&self, cfg: &SystemConfig) -> Box<dyn DcScheme> {
        match self {
            SchemeSpec::Baseline => Box::new(Baseline::new()),
            SchemeSpec::Ideal => Box::new(Ideal::new(cfg.dc_capacity)),
            SchemeSpec::Tid => SchemeSpec::TidWith(TidSpec::default()).build(cfg),
            SchemeSpec::TidWith(t) => Box::new(Tid::new(TidConfig {
                line_bytes: t.line_bytes,
                assoc: t.assoc,
                mshrs: t.mshrs,
                ..TidConfig::paper(cfg.dc_capacity)
            })),
            SchemeSpec::Tdram => SchemeSpec::TdramWith(TdramSpec::default()).build(cfg),
            SchemeSpec::TdramWith(t) => Box::new(Tdram::new(TdramConfig {
                mshrs: t.mshrs,
                buffer_latency: t.buffer_latency,
                ..TdramConfig::paper(cfg.dc_capacity)
            })),
            SchemeSpec::Banshee => SchemeSpec::BansheeWith(BansheeSpec::default()).build(cfg),
            SchemeSpec::BansheeWith(b) => Box::new(Banshee::new(BansheeConfig {
                ways: b.ways,
                sample_rate: b.sample_rate,
                admit_threshold: b.admit_threshold,
                tag_buffer_entries: b.tag_buffer_entries,
                ..BansheeConfig::paper(cfg.dc_capacity)
            })),
            SchemeSpec::Tdc => Box::new(NomadScheme::tdc(cfg.dc_capacity, cfg.cores)),
            SchemeSpec::Nomad => SchemeSpec::NomadWith(NomadSpec::default()).build(cfg),
            SchemeSpec::NomadWith(n) => {
                let mut c = NomadConfig::nomad(cfg.dc_capacity);
                c.pcshrs = n.pcshrs;
                c.buffers = n.buffers;
                c.backends = n.backends;
                c.critical_data_first = n.critical_data_first;
                if n.second_touch_policy {
                    c.policy = CachingPolicy::SecondTouch;
                }
                Box::new(NomadScheme::new(c))
            }
        }
    }

    /// The five Fig. 9 schemes, in plot order.
    pub fn fig9_set() -> Vec<SchemeSpec> {
        vec![
            SchemeSpec::Baseline,
            SchemeSpec::Tid,
            SchemeSpec::Tdc,
            SchemeSpec::Nomad,
            SchemeSpec::Ideal,
        ]
    }

    /// All seven first-class schemes for the head-to-head comparison,
    /// in plot order: bounds outermost, HW-based designs, then the
    /// OS-managed designs.
    pub fn headtohead_set() -> Vec<SchemeSpec> {
        vec![
            SchemeSpec::Baseline,
            SchemeSpec::Tid,
            SchemeSpec::Tdram,
            SchemeSpec::Banshee,
            SchemeSpec::Tdc,
            SchemeSpec::Nomad,
            SchemeSpec::Ideal,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_builds() {
        let cfg = SystemConfig::scaled(2);
        for spec in SchemeSpec::fig9_set() {
            let scheme = spec.build(&cfg);
            assert_eq!(scheme.name(), spec.label());
        }
    }

    #[test]
    fn headtohead_has_all_seven_schemes() {
        let cfg = SystemConfig::scaled(2);
        let set = SchemeSpec::headtohead_set();
        assert_eq!(set.len(), 7);
        for spec in &set {
            assert_eq!(spec.build(&cfg).name(), spec.label());
        }
        let labels: Vec<_> = set.iter().map(|s| s.label()).collect();
        assert!(labels.contains(&"Banshee") && labels.contains(&"TDRAM"));
    }

    #[test]
    fn canonical_folds_default_specs_and_coupled_buffers() {
        use SchemeSpec as S;
        let nomad = |pcshrs, buffers| {
            let spec = NomadSpec::default();
            S::NomadWith(NomadSpec {
                pcshrs,
                buffers,
                ..spec
            })
        };
        for (spelling, canonical) in [
            (S::TidWith(TidSpec::default()), S::Tid),
            (S::TdramWith(TdramSpec::default()), S::Tdram),
            (S::BansheeWith(BansheeSpec::default()), S::Banshee),
            (S::NomadWith(NomadSpec::default()), S::Nomad),
            (nomad(16, Some(16)), S::Nomad),
            (nomad(32, Some(32)), nomad(32, None)),
            (nomad(32, Some(8)), nomad(32, Some(8))),
            (S::Tdc, S::Tdc),
        ] {
            assert_eq!(spelling.canonical(), canonical, "{spelling:?}");
            assert_eq!(canonical.canonical(), canonical, "{canonical:?}");
        }
    }

    #[test]
    fn parameterized_contenders_build() {
        let cfg = SystemConfig::scaled(2);
        let t = SchemeSpec::TdramWith(TdramSpec {
            mshrs: 8,
            ..TdramSpec::default()
        });
        assert_eq!(t.build(&cfg).name(), "TDRAM");
        let b = SchemeSpec::BansheeWith(BansheeSpec {
            ways: 8,
            ..BansheeSpec::default()
        });
        assert_eq!(b.build(&cfg).name(), "Banshee");
    }

    #[test]
    fn parameterized_nomad_builds() {
        let cfg = SystemConfig::scaled(2);
        let spec = SchemeSpec::NomadWith(NomadSpec {
            pcshrs: 4,
            buffers: Some(2),
            backends: 4,
            critical_data_first: false,
            ..NomadSpec::default()
        });
        assert_eq!(spec.build(&cfg).name(), "NOMAD");
        assert_eq!(spec.label(), "NOMAD");
    }
}
