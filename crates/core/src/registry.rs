use crate::{
    CurveAlloc, CurveKind, DeclusteringMethod, DiskModulo, EccDecluster, FieldwiseXor,
    GeneralizedDiskModulo, Hcam, MethodError, RandomAlloc, Result, RoundRobin,
};
use decluster_grid::GridSpace;

/// The methods the registry can construct.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MethodKind {
    /// Disk Modulo / CMD.
    Dm,
    /// Binary Disk Modulo (radix-coefficient GDM).
    Bdm,
    /// Field-wise XOR (auto FX/ExFX).
    Fx,
    /// Error-correcting-code cosets.
    Ecc,
    /// Hilbert curve allocation.
    Hcam,
    /// Z-order curve allocation (HCAM ablation).
    Zcam,
    /// Gray-coded-order allocation (HCAM ablation).
    GrayCam,
    /// Row-major round-robin baseline.
    RoundRobin,
    /// Seeded random baseline.
    Random,
}

impl MethodKind {
    /// The paper's four grid-based methods, in the order its figures list
    /// them.
    pub const PAPER: [MethodKind; 4] = [
        MethodKind::Dm,
        MethodKind::Fx,
        MethodKind::Ecc,
        MethodKind::Hcam,
    ];

    /// Every kind the registry knows.
    pub const ALL: [MethodKind; 9] = [
        MethodKind::Dm,
        MethodKind::Bdm,
        MethodKind::Fx,
        MethodKind::Ecc,
        MethodKind::Hcam,
        MethodKind::Zcam,
        MethodKind::GrayCam,
        MethodKind::RoundRobin,
        MethodKind::Random,
    ];

    /// Stable name (matches `DeclusteringMethod::name` for these kinds).
    pub fn name(self) -> &'static str {
        match self {
            MethodKind::Dm => "DM",
            MethodKind::Bdm => "BDM",
            MethodKind::Fx => "FX",
            MethodKind::Ecc => "ECC",
            MethodKind::Hcam => "HCAM",
            MethodKind::Zcam => "ZCAM",
            MethodKind::GrayCam => "GrayCAM",
            MethodKind::RoundRobin => "RR",
            MethodKind::Random => "RND",
        }
    }

    /// The accepted names and aliases, for error messages and CLI help.
    pub const ACCEPTED_NAMES: &'static str =
        "DM/CMD, BDM, FX/ExFX, ECC, HCAM, ZCAM, GrayCAM, RR, RND";

    /// Parses a kind from a (case-insensitive) name. `"CMD"` is accepted
    /// as an alias of DM, `"ExFX"` of FX. Equivalent to the [`std::str::FromStr`]
    /// impl.
    ///
    /// # Errors
    /// [`MethodError::UnknownMethod`] for anything else.
    pub fn parse(name: &str) -> Result<Self> {
        name.parse()
    }
}

impl std::str::FromStr for MethodKind {
    type Err = MethodError;

    fn from_str(name: &str) -> Result<Self> {
        match name.to_ascii_uppercase().as_str() {
            "DM" | "CMD" | "DM/CMD" => Ok(MethodKind::Dm),
            "BDM" => Ok(MethodKind::Bdm),
            "FX" | "EXFX" => Ok(MethodKind::Fx),
            "ECC" => Ok(MethodKind::Ecc),
            "HCAM" => Ok(MethodKind::Hcam),
            "ZCAM" => Ok(MethodKind::Zcam),
            "GRAYCAM" => Ok(MethodKind::GrayCam),
            "RR" | "ROUNDROBIN" | "ROUND-ROBIN" => Ok(MethodKind::RoundRobin),
            "RND" | "RANDOM" => Ok(MethodKind::Random),
            _ => Err(MethodError::UnknownMethod { name: name.into() }),
        }
    }
}

impl std::fmt::Display for MethodKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Constructs declustering methods by kind or name for a given grid and
/// disk count, and assembles the standard comparison sets the experiment
/// harness sweeps.
#[derive(Clone, Debug)]
pub struct MethodRegistry {
    seed: u64,
}

impl Default for MethodRegistry {
    fn default() -> Self {
        MethodRegistry { seed: 0xDEC1_0570 }
    }
}

impl MethodRegistry {
    /// A registry whose random baseline uses `seed`.
    pub fn with_seed(seed: u64) -> Self {
        MethodRegistry { seed }
    }

    /// Builds one method instance.
    ///
    /// # Errors
    /// Whatever the method's constructor rejects (e.g. ECC on
    /// non-power-of-two configurations).
    pub fn build(
        &self,
        kind: MethodKind,
        space: &GridSpace,
        m: u32,
    ) -> Result<Box<dyn DeclusteringMethod>> {
        Ok(match kind {
            MethodKind::Dm => Box::new(DiskModulo::new(space, m)?),
            MethodKind::Bdm => Box::new(GeneralizedDiskModulo::bdm(space, m)?),
            MethodKind::Fx => Box::new(FieldwiseXor::new(space, m)?),
            MethodKind::Ecc => Box::new(EccDecluster::new(space, m)?),
            MethodKind::Hcam => Box::new(Hcam::new(space, m)?),
            MethodKind::Zcam => Box::new(CurveAlloc::new(space, m, CurveKind::Morton)?),
            MethodKind::GrayCam => Box::new(CurveAlloc::new(space, m, CurveKind::Gray)?),
            MethodKind::RoundRobin => Box::new(RoundRobin::new(space, m)?),
            MethodKind::Random => Box::new(RandomAlloc::new(space, m, self.seed)?),
        })
    }

    /// Builds a method by name (see [`MethodKind::parse`]).
    ///
    /// # Errors
    /// Unknown names and constructor failures.
    pub fn build_by_name(
        &self,
        name: &str,
        space: &GridSpace,
        m: u32,
    ) -> Result<Box<dyn DeclusteringMethod>> {
        self.build(MethodKind::parse(name)?, space, m)
    }

    /// The paper's four methods on this configuration, skipping any whose
    /// constructor rejects it (e.g. ECC when `M` is not a power of two —
    /// matching how the study only reports methods where they apply).
    pub fn paper_methods(&self, space: &GridSpace, m: u32) -> Vec<Box<dyn DeclusteringMethod>> {
        MethodKind::PAPER
            .iter()
            .filter_map(|&k| self.build(k, space, m).ok())
            .collect()
    }

    /// The paper's methods plus the RR and RND baselines.
    pub fn with_baselines(&self, space: &GridSpace, m: u32) -> Vec<Box<dyn DeclusteringMethod>> {
        let mut v = self.paper_methods(space, m);
        for kind in [MethodKind::RoundRobin, MethodKind::Random] {
            if let Ok(built) = self.build(kind, space, m) {
                v.push(built);
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fromstr_and_display_roundtrip() {
        for kind in MethodKind::ALL {
            assert_eq!(kind.to_string(), kind.name());
            assert_eq!(kind.to_string().parse::<MethodKind>().unwrap(), kind);
        }
        let err = "zorp".parse::<MethodKind>().unwrap_err();
        assert!(err.to_string().contains("HCAM"), "{err}");
    }

    #[test]
    fn parse_accepts_aliases_and_case() {
        assert_eq!(MethodKind::parse("cmd").unwrap(), MethodKind::Dm);
        assert_eq!(MethodKind::parse("exfx").unwrap(), MethodKind::Fx);
        assert_eq!(MethodKind::parse("HCAM").unwrap(), MethodKind::Hcam);
        assert_eq!(
            MethodKind::parse("round-robin").unwrap(),
            MethodKind::RoundRobin
        );
        assert!(matches!(
            MethodKind::parse("nope").unwrap_err(),
            MethodError::UnknownMethod { .. }
        ));
    }

    #[test]
    fn build_all_kinds_on_power_of_two_grid() {
        let g = GridSpace::new_2d(16, 16).unwrap();
        let reg = MethodRegistry::default();
        for kind in MethodKind::ALL {
            let m = reg.build(kind, &g, 8).unwrap();
            assert_eq!(m.name(), kind.name(), "{kind:?}");
            assert_eq!(m.num_disks(), 8);
        }
    }

    #[test]
    fn paper_set_drops_ecc_on_unsupported_config() {
        let g = GridSpace::new_2d(16, 16).unwrap();
        let reg = MethodRegistry::default();
        let with6: Vec<&str> = reg.paper_methods(&g, 6).iter().map(|m| m.name()).collect();
        assert_eq!(with6, vec!["DM", "FX", "HCAM"]);
        let with8: Vec<&str> = reg.paper_methods(&g, 8).iter().map(|m| m.name()).collect();
        assert_eq!(with8, vec!["DM", "FX", "ECC", "HCAM"]);
    }

    #[test]
    fn with_baselines_appends_rr_and_rnd() {
        let g = GridSpace::new_2d(8, 8).unwrap();
        let reg = MethodRegistry::default();
        let names: Vec<&str> = reg.with_baselines(&g, 4).iter().map(|m| m.name()).collect();
        assert_eq!(names, vec!["DM", "FX", "ECC", "HCAM", "RR", "RND"]);
    }

    #[test]
    fn build_by_name_roundtrips() {
        let g = GridSpace::new_2d(8, 8).unwrap();
        let reg = MethodRegistry::with_seed(7);
        assert_eq!(reg.build_by_name("dm", &g, 4).unwrap().name(), "DM");
        assert!(reg.build_by_name("mystery", &g, 4).is_err());
    }

    #[test]
    fn fx_name_reflects_extension() {
        // On a 4x4 grid with 16 disks the registry's FX reports "ExFX".
        let g = GridSpace::new_2d(4, 4).unwrap();
        let reg = MethodRegistry::default();
        let fx = reg.build(MethodKind::Fx, &g, 16).unwrap();
        assert_eq!(fx.name(), "ExFX");
    }
}
