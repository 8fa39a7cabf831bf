//! Schedule and diagnostics serialization.
//!
//! The paper's artifact ships the execution schedules for every evaluated
//! model alongside the code; this module provides the equivalent: named
//! execution orders and multi-lane schedules serialize to JSON and import
//! back with validation against the dependency graph, so schedules can be
//! produced offline (e.g. by the search heuristics) and replayed by a
//! training job. Serialization is built on the in-tree [`crate::json`]
//! document model (the build environment has no `serde_json`).
//!
//! The module also defines the machine-readable diagnostics format
//! emitted by the `ooo-verify` static analyzer and its `ooo-lint` CLI:
//! [`DiagnosticRecord`] / [`diagnostics_to_json`]. Keeping the format
//! here (rather than in the analyzer crate) makes it part of the stable
//! interchange surface next to [`ScheduleBundle`].

use crate::error::{Error, Result};
use crate::graph::{GraphConfig, TrainGraph};
use crate::json::{obj, Value};
use crate::op::Op;
use crate::schedule::{validate_partial_order, ResourceId, ResourceSchedule, Schedule};
use std::collections::BTreeMap;

/// A named bundle of execution schedules for one model.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleBundle {
    /// Model name the schedules were produced for.
    pub model: String,
    /// Graph configuration the orders were validated against.
    pub graph: GraphConfig,
    /// Flat execution orders by name (e.g. `"reverse_first_45"`).
    pub orders: BTreeMap<String, Vec<Op>>,
    /// Multi-lane schedules by name (e.g. `"multi_region"`).
    pub schedules: BTreeMap<String, Schedule>,
}

impl ScheduleBundle {
    /// Creates an empty bundle for a model/graph pair.
    pub fn new(model: &str, graph: &TrainGraph) -> Self {
        ScheduleBundle {
            model: model.to_string(),
            graph: graph.config().clone(),
            orders: BTreeMap::new(),
            schedules: BTreeMap::new(),
        }
    }

    /// Adds a flat order after validating it against `graph`.
    ///
    /// # Errors
    ///
    /// Returns validation errors for invalid orders and
    /// [`Error::InvalidConfig`] when `graph` does not match the bundle's
    /// configuration.
    pub fn add_order(&mut self, name: &str, graph: &TrainGraph, order: Vec<Op>) -> Result<()> {
        if graph.config() != &self.graph {
            return Err(Error::InvalidConfig(
                "graph does not match the bundle".into(),
            ));
        }
        validate_partial_order(graph, &order)?;
        self.orders.insert(name.to_string(), order);
        Ok(())
    }

    /// Serializes the bundle to pretty JSON.
    ///
    /// # Errors
    ///
    /// Infallible for well-formed bundles; the `Result` is kept for
    /// interface stability.
    pub fn to_json(&self) -> Result<String> {
        Ok(self.to_value().to_pretty())
    }

    fn to_value(&self) -> Value {
        let orders = Value::Obj(
            self.orders
                .iter()
                .map(|(name, order)| (name.clone(), ops_to_value(order)))
                .collect(),
        );
        let schedules = Value::Obj(
            self.schedules
                .iter()
                .map(|(name, sched)| (name.clone(), schedule_to_value(sched)))
                .collect(),
        );
        obj([
            ("model", self.model.as_str().into()),
            ("graph", graph_config_to_value(&self.graph)),
            ("orders", orders),
            ("schedules", schedules),
        ])
    }

    /// Parses a bundle from JSON and re-validates every order against the
    /// embedded graph configuration — imported schedules are never
    /// trusted blindly.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for malformed JSON and validation
    /// errors for any order that violates the dependency graph.
    pub fn from_json(json: &str) -> Result<Self> {
        let root = Value::parse(json).map_err(|e| Error::InvalidConfig(format!("parse: {e}")))?;
        let bundle = Self::from_value(&root)?;
        let graph = TrainGraph::new(bundle.graph.clone())?;
        for order in bundle.orders.values() {
            validate_partial_order(&graph, order)?;
        }
        for schedule in bundle.schedules.values() {
            // Lane-level validation: each op must exist; cross-lane
            // consistency is checked when the schedule is simulated or
            // run through the `ooo-verify` analyzer.
            for (_, op) in schedule.iter_ops() {
                if !graph.contains(op) {
                    return Err(Error::UnknownOp(op));
                }
            }
        }
        Ok(bundle)
    }

    /// Parses a bundle from JSON *without* re-validating the orders or
    /// schedules against the dependency graph. This is the entry point for
    /// linting tools (`ooo-lint`): a bundle whose schedule breaks a
    /// dependency must still parse so the analyzer can diagnose *why* it
    /// is broken instead of rejecting it at the door. Only structural JSON
    /// errors and an invalid graph configuration are rejected.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for malformed documents or an
    /// unbuildable graph configuration.
    pub fn from_json_lenient(json: &str) -> Result<Self> {
        let root = Value::parse(json).map_err(|e| Error::InvalidConfig(format!("parse: {e}")))?;
        let bundle = Self::from_value(&root)?;
        TrainGraph::new(bundle.graph.clone())?;
        Ok(bundle)
    }

    /// The entries named `wanted` (every entry when `None`): orders
    /// first, then schedules, each in name order.
    ///
    /// # Errors
    ///
    /// `no order or schedule named "<wanted>" in the bundle` when
    /// `wanted` names no entry. An empty bundle selected with `None` is
    /// not an error: the caller decides what nothing to do means.
    pub fn select(
        &self,
        wanted: Option<&str>,
    ) -> std::result::Result<Vec<BundleEntry<'_>>, String> {
        let orders = self
            .orders
            .iter()
            .map(|(name, order)| BundleEntry::Order(name, order));
        let schedules = self
            .schedules
            .iter()
            .map(|(name, schedule)| BundleEntry::Schedule(name, schedule));
        let entries: Vec<_> = orders
            .chain(schedules)
            .filter(|e| wanted.is_none_or(|w| w == e.name()))
            .collect();
        match wanted {
            Some(w) if entries.is_empty() => {
                Err(format!("no order or schedule named {w:?} in the bundle"))
            }
            _ => Ok(entries),
        }
    }

    fn from_value(root: &Value) -> Result<Self> {
        let model = require_str(root, "model")?.to_string();
        let graph = graph_config_from_value(require(root, "graph")?)?;
        let mut orders = BTreeMap::new();
        for (name, v) in require_obj(root, "orders")? {
            orders.insert(name.clone(), ops_from_value(v, name)?);
        }
        let mut schedules = BTreeMap::new();
        for (name, v) in require_obj(root, "schedules")? {
            schedules.insert(name.clone(), schedule_from_value(v, name)?);
        }
        Ok(ScheduleBundle {
            model,
            graph,
            orders,
            schedules,
        })
    }
}

/// One named entry of a [`ScheduleBundle`], as yielded by
/// [`ScheduleBundle::select`].
#[derive(Debug, Clone, Copy)]
pub enum BundleEntry<'a> {
    /// A flat execution order.
    Order(&'a str, &'a [Op]),
    /// A multi-lane schedule.
    Schedule(&'a str, &'a Schedule),
}

impl BundleEntry<'_> {
    /// The entry's name in the bundle.
    pub fn name(&self) -> &str {
        match self {
            BundleEntry::Order(name, _) | BundleEntry::Schedule(name, _) => name,
        }
    }

    /// The entry as a schedule: a flat order becomes a single lane
    /// named after the entry; a schedule is cloned as-is.
    pub fn to_schedule(&self) -> Schedule {
        match self {
            BundleEntry::Order(name, order) => Schedule::single_lane(name, order.to_vec()),
            BundleEntry::Schedule(_, schedule) => (*schedule).clone(),
        }
    }
}

/// One analyzer finding in the machine-readable diagnostics format.
///
/// This mirrors `ooo_verify::Diagnostic` structurally; the analyzer
/// converts its findings into records so that the JSON schema lives with
/// the other interchange types in this module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiagnosticRecord {
    /// Stable rule identifier (e.g. `"OV201"`).
    pub rule: String,
    /// Severity: `"error"`, `"warning"`, or `"info"`.
    pub severity: String,
    /// Operations involved in the finding, in paper notation.
    pub ops: Vec<Op>,
    /// Names of the lanes involved, if the finding is lane-specific.
    pub lanes: Vec<String>,
    /// Human-readable explanation.
    pub message: String,
}

/// Serializes analyzer findings for one schedule to pretty JSON.
///
/// The document shape is `{"schedule": name, "diagnostics": [...]}` with
/// one object per record.
pub fn diagnostics_to_json(schedule_name: &str, records: &[DiagnosticRecord]) -> String {
    let diags: Vec<Value> = records
        .iter()
        .map(|r| {
            obj([
                ("rule", r.rule.as_str().into()),
                ("severity", r.severity.as_str().into()),
                ("ops", ops_to_value(&r.ops)),
                (
                    "lanes",
                    Value::Arr(r.lanes.iter().map(|l| l.as_str().into()).collect()),
                ),
                ("message", r.message.as_str().into()),
            ])
        })
        .collect();
    obj([
        ("schedule", schedule_name.into()),
        ("diagnostics", Value::Arr(diags)),
    ])
    .to_pretty()
}

/// Parses a diagnostics document produced by [`diagnostics_to_json`].
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] for malformed documents.
pub fn diagnostics_from_json(json: &str) -> Result<(String, Vec<DiagnosticRecord>)> {
    let root = Value::parse(json).map_err(|e| Error::InvalidConfig(format!("parse: {e}")))?;
    let name = require_str(&root, "schedule")?.to_string();
    let arr = require(&root, "diagnostics")?
        .as_arr()
        .ok_or_else(|| Error::InvalidConfig("diagnostics: expected array".into()))?;
    let mut records = Vec::with_capacity(arr.len());
    for v in arr {
        records.push(DiagnosticRecord {
            rule: require_str(v, "rule")?.to_string(),
            severity: require_str(v, "severity")?.to_string(),
            ops: ops_from_value(require(v, "ops")?, "ops")?,
            lanes: require(v, "lanes")?
                .as_arr()
                .ok_or_else(|| Error::InvalidConfig("lanes: expected array".into()))?
                .iter()
                .map(|l| {
                    l.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| Error::InvalidConfig("lanes: expected strings".into()))
                })
                .collect::<Result<_>>()?,
            message: require_str(v, "message")?.to_string(),
        });
    }
    Ok((name, records))
}

fn graph_config_to_value(cfg: &GraphConfig) -> Value {
    obj([
        ("layers", cfg.layers.into()),
        ("sync_weight_grads", cfg.sync_weight_grads.into()),
        ("sync_output_grads", cfg.sync_output_grads.into()),
        ("include_updates", cfg.include_updates.into()),
        ("include_forward", cfg.include_forward.into()),
        (
            "compute_first_output_grad",
            cfg.compute_first_output_grad.into(),
        ),
    ])
}

/// Upper bound on `layers` accepted from untrusted bundles; graph
/// construction allocates per-layer vectors, so an absurd count from a
/// corrupt document must fail cleanly instead of exhausting memory.
const MAX_BUNDLE_LAYERS: usize = 1_000_000;

fn graph_config_from_value(v: &Value) -> Result<GraphConfig> {
    let flag = |key: &str| -> Result<bool> {
        require(v, key)?
            .as_bool()
            .ok_or_else(|| Error::InvalidConfig(format!("{key}: expected bool")))
    };
    let layers = require(v, "layers")?
        .as_usize()
        .ok_or_else(|| Error::InvalidConfig("layers: expected integer".into()))?;
    if layers > MAX_BUNDLE_LAYERS {
        return Err(Error::InvalidConfig(format!(
            "layers: {layers} exceeds the bundle limit of {MAX_BUNDLE_LAYERS}"
        )));
    }
    Ok(GraphConfig {
        layers,
        sync_weight_grads: flag("sync_weight_grads")?,
        sync_output_grads: flag("sync_output_grads")?,
        include_updates: flag("include_updates")?,
        include_forward: flag("include_forward")?,
        compute_first_output_grad: flag("compute_first_output_grad")?,
    })
}

fn ops_to_value(ops: &[Op]) -> Value {
    Value::Arr(ops.iter().map(|op| op.to_string().into()).collect())
}

fn ops_from_value(v: &Value, what: &str) -> Result<Vec<Op>> {
    v.as_arr()
        .ok_or_else(|| Error::InvalidConfig(format!("{what}: expected array of ops")))?
        .iter()
        .map(|item| {
            item.as_str()
                .ok_or_else(|| Error::InvalidConfig(format!("{what}: expected op strings")))?
                .parse::<Op>()
                .map_err(Error::InvalidConfig)
        })
        .collect()
}

fn schedule_to_value(sched: &Schedule) -> Value {
    Value::Arr(
        sched
            .lanes
            .iter()
            .map(|lane| {
                obj([
                    ("resource", lane.resource.0.into()),
                    ("name", lane.name.as_str().into()),
                    ("ops", ops_to_value(&lane.ops)),
                ])
            })
            .collect(),
    )
}

fn schedule_from_value(v: &Value, what: &str) -> Result<Schedule> {
    let lanes =
        v.as_arr()
            .ok_or_else(|| Error::InvalidConfig(format!("{what}: expected array of lanes")))?
            .iter()
            .map(|lane| {
                Ok(ResourceSchedule {
                    resource: ResourceId(require(lane, "resource")?.as_usize().ok_or_else(
                        || Error::InvalidConfig("resource: expected integer".into()),
                    )?),
                    name: require_str(lane, "name")?.to_string(),
                    ops: ops_from_value(require(lane, "ops")?, "lane ops")?,
                })
            })
            .collect::<Result<Vec<_>>>()?;
    Ok(Schedule { lanes })
}

fn require<'v>(v: &'v Value, key: &str) -> Result<&'v Value> {
    v.get(key)
        .ok_or_else(|| Error::InvalidConfig(format!("missing field: {key}")))
}

fn require_str<'v>(v: &'v Value, key: &str) -> Result<&'v str> {
    require(v, key)?
        .as_str()
        .ok_or_else(|| Error::InvalidConfig(format!("{key}: expected string")))
}

fn require_obj<'v>(v: &'v Value, key: &str) -> Result<&'v [(String, Value)]> {
    require(v, key)?
        .as_obj()
        .ok_or_else(|| Error::InvalidConfig(format!("{key}: expected object")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::UnitCost;
    use crate::reverse_k::reverse_first_k;

    #[test]
    fn select_yields_orders_then_schedules_and_names_a_miss() {
        let graph = TrainGraph::single_gpu(3);
        let mut bundle = ScheduleBundle::new("toy", &graph);
        bundle
            .add_order("z-order", &graph, graph.conventional_backprop())
            .unwrap();
        bundle
            .schedules
            .insert("a-schedule".to_string(), Schedule::new());
        let names = |wanted| -> Vec<String> {
            let entries = bundle.select(wanted).unwrap();
            entries.iter().map(|e| e.name().to_string()).collect()
        };
        assert_eq!(names(None), ["z-order", "a-schedule"]);
        assert_eq!(names(Some("a-schedule")), ["a-schedule"]);
        assert_eq!(
            bundle.select(Some("nope")).unwrap_err(),
            "no order or schedule named \"nope\" in the bundle"
        );
        let empty = ScheduleBundle::new("empty", &graph);
        assert!(empty.select(None).unwrap().is_empty());
    }

    #[test]
    fn round_trip_preserves_orders() {
        let graph = TrainGraph::data_parallel(12);
        let mut bundle = ScheduleBundle::new("ResNet-toy", &graph);
        bundle
            .add_order("conventional", &graph, graph.conventional_backprop())
            .unwrap();
        bundle
            .add_order(
                "reverse_first_5",
                &graph,
                reverse_first_k::<UnitCost>(&graph, 5, None).unwrap(),
            )
            .unwrap();
        let json = bundle.to_json().unwrap();
        let back = ScheduleBundle::from_json(&json).unwrap();
        assert_eq!(back, bundle);
        assert_eq!(
            back.orders["reverse_first_5"].len(),
            bundle.orders["reverse_first_5"].len()
        );
    }

    #[test]
    fn round_trip_preserves_schedules() {
        let graph = TrainGraph::single_gpu(4);
        let mut bundle = ScheduleBundle::new("toy", &graph);
        let mut sched = Schedule::new();
        sched.add_lane("main-stream", graph.conventional_backprop());
        bundle.schedules.insert("conv".into(), sched);
        let json = bundle.to_json().unwrap();
        let back = ScheduleBundle::from_json(&json).unwrap();
        assert_eq!(back, bundle);
        assert_eq!(back.schedules["conv"].lanes[0].name, "main-stream");
    }

    #[test]
    fn invalid_orders_rejected_on_add_and_import() {
        let graph = TrainGraph::single_gpu(3);
        let mut bundle = ScheduleBundle::new("toy", &graph);
        // dW before the loss: invalid.
        let bad = vec![
            crate::op::Op::WeightGrad(crate::op::LayerId(3)),
            crate::op::Op::Loss,
        ];
        assert!(bundle.add_order("bad", &graph, bad.clone()).is_err());
        // Tampered JSON: inject the invalid order directly.
        bundle
            .add_order("ok", &graph, graph.conventional_backprop())
            .unwrap();
        let mut tampered = bundle.clone();
        tampered.orders.insert("bad".into(), bad);
        let json = tampered.to_json().unwrap();
        assert!(ScheduleBundle::from_json(&json).is_err());
    }

    #[test]
    fn mismatched_graph_rejected() {
        let g12 = TrainGraph::data_parallel(12);
        let g8 = TrainGraph::data_parallel(8);
        let mut bundle = ScheduleBundle::new("toy", &g12);
        assert!(bundle
            .add_order("x", &g8, g8.conventional_backprop())
            .is_err());
    }

    #[test]
    fn malformed_json_rejected() {
        assert!(ScheduleBundle::from_json("not json").is_err());
        assert!(ScheduleBundle::from_json("{}").is_err());
    }

    #[test]
    fn absurd_layer_counts_rejected_before_allocation() {
        let graph = TrainGraph::single_gpu(2);
        let bundle = ScheduleBundle::new("toy", &graph);
        let json = bundle.to_json().unwrap();
        let tampered = json.replace("\"layers\": 2", "\"layers\": 1000000000000");
        assert_ne!(json, tampered, "fixture no longer matches serialization");
        let err = ScheduleBundle::from_json(&tampered).unwrap_err();
        assert!(
            err.to_string().contains("exceeds the bundle limit"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn diagnostics_round_trip() {
        let records = vec![DiagnosticRecord {
            rule: "OV201".into(),
            severity: "error".into(),
            ops: vec![Op::WeightGrad(crate::op::LayerId(3)), Op::Loss],
            lanes: vec!["main-stream".into(), "sub-stream".into()],
            message: "unsynchronized accesses to WeightGrad(3)".into(),
        }];
        let json = diagnostics_to_json("multi_region", &records);
        let (name, back) = diagnostics_from_json(&json).unwrap();
        assert_eq!(name, "multi_region");
        assert_eq!(back, records);
    }
}
