//! The campaign identity and its codec.
//!
//! A campaign report is a pure function of seven fields, in this
//! order:
//!
//! ```text
//! "kernel":"fse_img00","mode":"float","injections":400,"seed":7,
//! "checkpoints":16,"escalation":2,"wall_ms":null
//! ```
//!
//! Every artefact that names a campaign carries exactly these,
//! rendered and parsed here: the journal header and the worker hello
//! (which is also the remote lease) through
//! [`JournalHeader`](crate::journal::JournalHeader), the submit
//! frame and the service journal's submit event through
//! [`CampaignRequest`], and the result-cache key. Dispatch is not
//! among them: reports are byte-identical under both dispatch modes,
//! so [`CampaignConfig::dispatch`] stays a local choice, and a
//! configuration rebuilt from an identity runs [`Dispatch::Traced`].
//!
//! [`CampaignRequest`]: crate::serve::CampaignRequest

use crate::campaign::CampaignConfig;
use crate::evaluation::Mode;
use crate::flatjson::{esc, Obj};
use nfp_sim::Dispatch;
use std::time::Duration;

/// One rendered field: its key and its JSON value.
pub(crate) type Field = (&'static str, String);

/// Renders fields as the body of a flat JSON object (`"k":v,...`).
pub(crate) fn render(fields: &[Field]) -> String {
    let pairs: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    pairs.join(",")
}

/// The first field whose value differs between two renderings of the
/// same field list, as `(key, ours, theirs)`.
pub(crate) fn first_mismatch(
    ours: &[Field],
    theirs: &[Field],
) -> Option<(&'static str, String, String)> {
    ours.iter()
        .zip(theirs)
        .find(|(a, b)| a.1 != b.1)
        .map(|(a, b)| (a.0, a.1.clone(), b.1.clone()))
}

/// The fields a campaign report is a pure function of.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Identity {
    pub(crate) kernel: String,
    pub(crate) mode: Mode,
    pub(crate) injections: usize,
    pub(crate) seed: u64,
    pub(crate) checkpoints: usize,
    /// Normalised to at least 1: escalations 0 and 1 both mean "no
    /// escalation" and yield the same report.
    pub(crate) escalation: u32,
    pub(crate) wall_ms: Option<u64>,
}

impl Identity {
    /// The identity of `cfg` run on `kernel` in `mode`.
    pub(crate) fn of(kernel: &str, mode: Mode, cfg: &CampaignConfig) -> Identity {
        Identity {
            kernel: kernel.to_string(),
            mode,
            injections: cfg.injections,
            seed: cfg.seed,
            checkpoints: cfg.checkpoints,
            escalation: cfg.escalation.max(1),
            wall_ms: cfg.wall.map(|d| d.as_millis() as u64),
        }
    }

    /// The identity fields in wire order.
    pub(crate) fn fields(&self) -> [Field; 7] {
        [
            ("kernel", format!("\"{}\"", esc(&self.kernel))),
            ("mode", format!("\"{}\"", self.mode.suffix())),
            ("injections", self.injections.to_string()),
            ("seed", self.seed.to_string()),
            ("checkpoints", self.checkpoints.to_string()),
            ("escalation", self.escalation.to_string()),
            (
                "wall_ms",
                self.wall_ms
                    .map_or_else(|| "null".to_string(), |n| n.to_string()),
            ),
        ]
    }

    /// The identity as the body of a flat JSON object.
    pub(crate) fn render(&self) -> String {
        render(&self.fields())
    }

    /// Parses the identity out of a flat object, ignoring any other
    /// key. `Err` names the first field that is missing or out of
    /// range; each caller wraps it in its own error type.
    pub(crate) fn parse(obj: &Obj) -> Result<Identity, &'static str> {
        let num = |k: &'static str| obj.u64(k).ok_or(k);
        Ok(Identity {
            kernel: obj.str("kernel").ok_or("kernel")?.to_string(),
            mode: obj.str("mode").and_then(Mode::from_suffix).ok_or("mode")?,
            injections: usize::try_from(num("injections")?).map_err(|_| "injections")?,
            seed: num("seed")?,
            checkpoints: usize::try_from(num("checkpoints")?).map_err(|_| "checkpoints")?,
            escalation: u32::try_from(num("escalation")?).map_err(|_| "escalation")?,
            wall_ms: obj.opt_u64("wall_ms").ok_or("wall_ms")?,
        })
    }

    /// The configuration this identity names, under traced dispatch.
    pub(crate) fn config(&self) -> CampaignConfig {
        CampaignConfig {
            injections: self.injections,
            seed: self.seed,
            checkpoints: self.checkpoints,
            wall: self.wall_ms.map(Duration::from_millis),
            dispatch: Dispatch::Traced,
            escalation: self.escalation,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flatjson::parse_flat;

    fn identity() -> Identity {
        Identity {
            kernel: "hevc_\"q\"".to_string(),
            mode: Mode::Fixed,
            injections: 40,
            seed: u64::MAX,
            checkpoints: 4,
            escalation: 3,
            wall_ms: Some(750),
        }
    }

    fn obj(body: &str) -> Obj {
        Obj(parse_flat(&format!("{{{body}}}")).unwrap())
    }

    #[test]
    fn renders_parses_and_rebuilds_the_config() {
        let id = identity();
        assert_eq!(Identity::parse(&obj(&id.render())), Ok(id.clone()));
        let none = Identity {
            wall_ms: None,
            ..id
        };
        assert_eq!(Identity::parse(&obj(&none.render())), Ok(none.clone()));
        let cfg = none.config();
        assert_eq!(cfg.dispatch, Dispatch::Traced);
        assert_eq!(Identity::of(&none.kernel, none.mode, &cfg), none);
    }

    #[test]
    fn parse_names_the_first_missing_field_and_ignores_others() {
        let rendered = identity().render();
        for (k, _) in identity().fields() {
            let without = rendered
                .split(',')
                .filter(|pair| !pair.starts_with(&format!("\"{k}\":")))
                .collect::<Vec<_>>()
                .join(",");
            assert_eq!(Identity::parse(&obj(&without)), Err(k));
        }
        let parent = format!("\"dispatch\":\"block\",{rendered}");
        assert_eq!(Identity::parse(&obj(&parent)), Ok(identity()));
        let huge = rendered.replace("\"escalation\":3", "\"escalation\":4294967296");
        assert_eq!(Identity::parse(&obj(&huge)), Err("escalation"));
    }

    #[test]
    fn first_mismatch_names_the_first_differing_field() {
        let a = identity();
        assert_eq!(first_mismatch(&a.fields(), &a.fields()), None);
        let b = Identity {
            seed: 1,
            wall_ms: None,
            ..a.clone()
        };
        assert_eq!(
            first_mismatch(&a.fields(), &b.fields()),
            Some(("seed", u64::MAX.to_string(), "1".to_string()))
        );
    }

    #[test]
    fn escalation_zero_and_one_are_one_identity() {
        let zero = CampaignConfig {
            escalation: 0,
            ..CampaignConfig::default()
        };
        let one = CampaignConfig {
            escalation: 1,
            ..CampaignConfig::default()
        };
        assert_eq!(
            Identity::of("k", Mode::Float, &zero),
            Identity::of("k", Mode::Float, &one)
        );
    }
}
