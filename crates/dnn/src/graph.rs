//! DAG model graphs (paper Def 2.2) with frozen-layer flags, shape
//! inference, materializability analysis (Def 2.4), and expression
//! signatures (Def 4.3).
//!
//! Nodes are stored in insertion order, which is a topological order by
//! construction (a node's inputs must already exist). Graph rewrites in the
//! planner always build fresh graphs, so this invariant is global.

use crate::layer::{LayerError, LayerKind};
use nautilus_tensor::{Shape, Tensor};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Index of a node within its [`ModelGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The underlying index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Errors raised while building or validating a graph.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant docs describe the self-named fields
pub enum GraphError {
    /// A referenced input node does not exist (or would create a cycle).
    BadInput { node: String, input: usize },
    /// Layer-level configuration or shape problem.
    Layer(String),
    /// The provided parameters do not match the layer kind.
    BadParams { node: String, expected: usize, actual: usize },
    /// An output id is invalid.
    BadOutput(usize),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::BadInput { node, input } => {
                write!(f, "node '{node}' references missing input #{input}")
            }
            GraphError::Layer(msg) => write!(f, "{msg}"),
            GraphError::BadParams { node, expected, actual } => {
                write!(f, "node '{node}' expects {expected} params, got {actual}")
            }
            GraphError::BadOutput(i) => write!(f, "output references missing node #{i}"),
        }
    }
}

impl std::error::Error for GraphError {}

impl From<LayerError> for GraphError {
    fn from(e: LayerError) -> Self {
        GraphError::Layer(e.to_string())
    }
}

/// How a node's parameters are provided at construction time.
pub enum ParamInit<'a> {
    /// Initialize fresh tensors from the RNG (real-execution graphs).
    Seeded(&'a mut dyn nautilus_util::rng::RngCore),
    /// Record parameter shapes only and tag values with `sig`
    /// (paper-scale simulated graphs never allocate weights).
    ShapesOnly {
        /// Stable identity of the (virtual) parameter values.
        sig: u64,
    },
    /// Adopt the given tensors (used when rewriting graphs).
    Given(Vec<Tensor>),
}

/// One layer instance in a graph.
#[derive(Debug, Clone)]
pub struct Node {
    /// Human-readable name; unique names make plans and stores debuggable.
    pub name: String,
    /// The layer type and configuration.
    pub kind: LayerKind,
    /// Ids of input nodes, in argument order.
    pub inputs: Vec<NodeId>,
    /// Whether the layer is frozen (paper Def 2.3). Layers without
    /// parameters are always frozen.
    pub frozen: bool,
    /// Parameter tensors (empty for shapes-only graphs).
    pub params: Vec<Tensor>,
    /// Parameter shapes (always populated).
    pub param_shapes: Vec<Shape>,
    /// Stable identity of the parameter *values*, used for expression
    /// signatures; equal sigs mean "identical trainable parameter values"
    /// per Def 4.3.
    pub param_sig: u64,
}

impl Node {
    /// Whether this node has parameters that training would update.
    pub fn trainable(&self) -> bool {
        !self.frozen && !self.param_shapes.is_empty()
    }

    /// Total parameter element count.
    pub fn param_elements(&self) -> usize {
        self.param_shapes.iter().map(Shape::num_elements).sum()
    }

    /// Total parameter bytes (f32).
    pub fn param_bytes(&self) -> usize {
        self.param_elements() * nautilus_tensor::ELEM_BYTES
    }

    /// True when parameter tensors are actually materialized in memory.
    pub fn has_real_params(&self) -> bool {
        self.params.len() == self.param_shapes.len() && !self.param_shapes.is_empty()
            || self.param_shapes.is_empty()
    }
}

fn hash_kind(kind: &LayerKind, h: &mut DefaultHasher) {
    kind.hash(h);
}

pub(crate) fn hash_params(params: &[Tensor]) -> u64 {
    let mut h = DefaultHasher::new();
    for p in params {
        p.shape().0.hash(&mut h);
        for &x in p.data() {
            x.to_bits().hash(&mut h);
        }
    }
    h.finish()
}

/// A DAG of layers with designated output nodes (paper Def 2.2).
#[derive(Debug, Clone, Default)]
pub struct ModelGraph {
    nodes: Vec<Node>,
    outputs: Vec<NodeId>,
    /// Cached per-record output shape of every node.
    shapes: Vec<Shape>,
}

impl ModelGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an input placeholder with the given per-record shape.
    pub fn add_input(&mut self, name: impl Into<String>, shape: impl Into<Shape>) -> NodeId {
        let shape = shape.into();
        let kind = LayerKind::Input { shape: shape.0.clone() };
        self.push_node(Node {
            name: name.into(),
            kind,
            inputs: Vec::new(),
            frozen: true,
            params: Vec::new(),
            param_shapes: Vec::new(),
            param_sig: 0,
        })
        .expect("input nodes cannot fail validation")
    }

    /// Adds a layer node.
    ///
    /// `frozen` marks the layer's parameters as not-to-be-updated (Def 2.3);
    /// parameterless layers are recorded as frozen regardless.
    pub fn add_layer(
        &mut self,
        name: impl Into<String>,
        kind: LayerKind,
        inputs: &[NodeId],
        frozen: bool,
        init: ParamInit<'_>,
    ) -> Result<NodeId, GraphError> {
        let name = name.into();
        let expected = kind.num_params();
        let (params, param_shapes, param_sig) = match init {
            ParamInit::Seeded(mut rng) => {
                // `&mut dyn RngCore` is itself an RngCore (and hence Rng),
                // so one extra reference satisfies `&mut impl Rng`.
                let params = kind.init_params(&mut rng);
                let shapes = params.iter().map(|p| p.shape().clone()).collect();
                let sig = hash_params(&params);
                (params, shapes, sig)
            }
            ParamInit::ShapesOnly { sig } => (Vec::new(), kind.param_shapes(), sig),
            ParamInit::Given(params) => {
                if params.len() != expected {
                    return Err(GraphError::BadParams {
                        node: name,
                        expected,
                        actual: params.len(),
                    });
                }
                let shapes = params.iter().map(|p| p.shape().clone()).collect();
                let sig = hash_params(&params);
                (params, shapes, sig)
            }
        };
        if param_shapes.len() != expected {
            return Err(GraphError::BadParams {
                node: name,
                expected,
                actual: param_shapes.len(),
            });
        }
        let frozen = frozen || expected == 0;
        self.push_node(Node { name, kind, inputs: inputs.to_vec(), frozen, params, param_shapes, param_sig })
    }

    /// Appends a node after checking that every input already exists (so
    /// a decoded checkpoint naming a missing or later node is an error).
    pub(crate) fn push_node(&mut self, node: Node) -> Result<NodeId, GraphError> {
        if let Some(bad) = node.inputs.iter().find(|i| i.index() >= self.nodes.len()) {
            return Err(GraphError::BadInput { node: node.name, input: bad.index() });
        }
        let input_shapes: Vec<Shape> =
            node.inputs.iter().map(|i| self.shapes[i.index()].clone()).collect();
        let out = node.kind.output_shape(&input_shapes)?;
        let id = NodeId(self.nodes.len());
        self.shapes.push(out);
        self.nodes.push(node);
        Ok(id)
    }

    /// Marks a node as a model output (paper `O`).
    pub fn add_output(&mut self, id: NodeId) -> Result<(), GraphError> {
        if id.index() >= self.nodes.len() {
            return Err(GraphError::BadOutput(id.index()));
        }
        if !self.outputs.contains(&id) {
            self.outputs.push(id);
        }
        Ok(())
    }

    /// The designated output nodes.
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Node lookup.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Mutable node lookup (used by optimizers to update parameters).
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.index()]
    }

    /// All nodes in topological (insertion) order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Replaces a node's parameter tensors, checking shapes and refreshing
    /// the value signature (so expression signatures stay truthful).
    pub fn set_node_params(&mut self, id: NodeId, params: Vec<Tensor>) -> Result<(), GraphError> {
        if id.index() >= self.nodes.len() {
            return Err(GraphError::BadOutput(id.index()));
        }
        let node = &mut self.nodes[id.index()];
        if params.len() != node.param_shapes.len() {
            return Err(GraphError::BadParams {
                node: node.name.clone(),
                expected: node.param_shapes.len(),
                actual: params.len(),
            });
        }
        for (p, s) in params.iter().zip(&node.param_shapes) {
            if p.shape() != s {
                return Err(GraphError::BadParams {
                    node: node.name.clone(),
                    expected: s.num_elements(),
                    actual: p.shape().num_elements(),
                });
            }
        }
        node.param_sig = hash_params(&params);
        node.params = params;
        Ok(())
    }

    /// Ids in topological order.
    pub fn ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId)
    }

    /// Per-record output shape of a node.
    pub fn shape(&self, id: NodeId) -> &Shape {
        &self.shapes[id.index()]
    }

    /// Ids of input (placeholder) nodes.
    pub fn input_ids(&self) -> Vec<NodeId> {
        self.ids()
            .filter(|&id| matches!(self.node(id).kind, LayerKind::Input { .. }))
            .collect()
    }

    /// Child adjacency: for every node, the nodes consuming its output.
    pub fn children(&self) -> Vec<Vec<NodeId>> {
        let mut ch = vec![Vec::new(); self.nodes.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            for &p in &n.inputs {
                ch[p.index()].push(NodeId(i));
            }
        }
        ch
    }

    /// Whether each node can reach a trainable parameterized layer through
    /// its ancestors — i.e. whether gradients must flow *into* the node.
    ///
    /// `requires_grad[l] = trainable(l) ∨ ∃ parent p: requires_grad[p]`.
    pub fn requires_grad(&self) -> Vec<bool> {
        let mut rg = vec![false; self.nodes.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            rg[i] = n.trainable() || n.inputs.iter().any(|p| rg[p.index()]);
        }
        rg
    }

    /// The materializable set (paper Def 2.4): inputs, plus frozen layers
    /// whose parents are all materializable.
    pub fn materializable(&self) -> Vec<bool> {
        let mut m = vec![false; self.nodes.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            m[i] = match n.kind {
                LayerKind::Input { .. } => true,
                _ => n.frozen && n.inputs.iter().all(|p| m[p.index()]),
            };
        }
        m
    }

    /// Expression signatures (paper Def 4.3): a node's signature covers its
    /// layer type, configuration, frozen flag, parameter values (via
    /// `param_sig`), and its parents' signatures — so equal signatures mean
    /// identical expressions rooted at identical layers.
    pub fn expr_signatures(&self) -> Vec<u64> {
        let mut sigs = vec![0u64; self.nodes.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            let mut h = DefaultHasher::new();
            hash_kind(&n.kind, &mut h);
            n.frozen.hash(&mut h);
            n.param_sig.hash(&mut h);
            for p in &n.inputs {
                sigs[p.index()].hash(&mut h);
            }
            sigs[i] = h.finish();
        }
        sigs
    }

    /// Total parameter bytes across all nodes.
    pub fn params_bytes(&self) -> usize {
        self.nodes.iter().map(Node::param_bytes).sum()
    }

    /// Total parameter bytes across trainable nodes only (what a
    /// frozen-aware checkpoint must write).
    pub fn trainable_params_bytes(&self) -> usize {
        self.nodes.iter().filter(|n| n.trainable()).map(Node::param_bytes).sum()
    }

    /// Number of trainable parameter elements.
    pub fn trainable_param_elements(&self) -> usize {
        self.nodes.iter().filter(|n| n.trainable()).map(Node::param_elements).sum()
    }

    /// Validates structural invariants; returns the first violation.
    pub fn validate(&self) -> Result<(), GraphError> {
        for (i, n) in self.nodes.iter().enumerate() {
            for &p in &n.inputs {
                if p.index() >= i {
                    return Err(GraphError::BadInput { node: n.name.clone(), input: p.index() });
                }
            }
            if n.param_shapes.len() != n.kind.num_params() {
                return Err(GraphError::BadParams {
                    node: n.name.clone(),
                    expected: n.kind.num_params(),
                    actual: n.param_shapes.len(),
                });
            }
        }
        for &o in &self.outputs {
            if o.index() >= self.nodes.len() {
                return Err(GraphError::BadOutput(o.index()));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Activation;
    use nautilus_tensor::init::seeded_rng;

    /// input -> dense(frozen) -> dense(trainable) -> output
    fn small_graph() -> ModelGraph {
        let mut rng = seeded_rng(1);
        let mut g = ModelGraph::new();
        let inp = g.add_input("in", [4]);
        let frozen = g
            .add_layer(
                "backbone",
                LayerKind::Dense { in_dim: 4, out_dim: 8, act: Activation::Relu },
                &[inp],
                true,
                ParamInit::Seeded(&mut rng),
            )
            .unwrap();
        let head = g
            .add_layer(
                "head",
                LayerKind::Dense { in_dim: 8, out_dim: 2, act: Activation::None },
                &[frozen],
                false,
                ParamInit::Seeded(&mut rng),
            )
            .unwrap();
        g.add_output(head).unwrap();
        g
    }

    #[test]
    fn build_and_validate() {
        let g = small_graph();
        assert_eq!(g.len(), 3);
        g.validate().unwrap();
        assert_eq!(g.shape(NodeId(1)), &Shape::new([8]));
        assert_eq!(g.input_ids(), vec![NodeId(0)]);
        assert_eq!(g.outputs(), &[NodeId(2)]);
    }

    #[test]
    fn requires_grad_stops_at_frozen_prefix() {
        let g = small_graph();
        let rg = g.requires_grad();
        assert_eq!(rg, vec![false, false, true]);
    }

    #[test]
    fn materializable_per_definition() {
        let g = small_graph();
        let m = g.materializable();
        // Input and frozen dense are materializable; trainable head is not.
        assert_eq!(m, vec![true, true, false]);
    }

    #[test]
    fn materializable_blocked_by_trainable_ancestor() {
        let mut rng = seeded_rng(2);
        let mut g = ModelGraph::new();
        let inp = g.add_input("in", [4]);
        let t = g
            .add_layer(
                "trainable",
                LayerKind::Dense { in_dim: 4, out_dim: 4, act: Activation::None },
                &[inp],
                false,
                ParamInit::Seeded(&mut rng),
            )
            .unwrap();
        // Frozen layer *above* a trainable one is NOT materializable.
        let f = g
            .add_layer(
                "frozen-above",
                LayerKind::Dense { in_dim: 4, out_dim: 4, act: Activation::None },
                &[t],
                true,
                ParamInit::Seeded(&mut rng),
            )
            .unwrap();
        g.add_output(f).unwrap();
        assert_eq!(g.materializable(), vec![true, false, false]);
    }

    #[test]
    fn identical_construction_gives_identical_signatures() {
        let a = small_graph();
        let b = small_graph();
        assert_eq!(a.expr_signatures(), b.expr_signatures());
        // Different seed -> different parameter values -> different sigs for
        // parameterized nodes.
        let mut rng = seeded_rng(99);
        let mut c = ModelGraph::new();
        let inp = c.add_input("in", [4]);
        let f = c
            .add_layer(
                "backbone",
                LayerKind::Dense { in_dim: 4, out_dim: 8, act: Activation::Relu },
                &[inp],
                true,
                ParamInit::Seeded(&mut rng),
            )
            .unwrap();
        c.add_output(f).unwrap();
        assert_eq!(a.expr_signatures()[0], c.expr_signatures()[0]); // same input
        assert_ne!(a.expr_signatures()[1], c.expr_signatures()[1]); // diff params
    }

    #[test]
    fn shapes_only_nodes_report_sizes_without_data() {
        let mut g = ModelGraph::new();
        let inp = g.add_input("in", [16]);
        let d = g
            .add_layer(
                "big",
                LayerKind::Dense { in_dim: 16, out_dim: 32, act: Activation::None },
                &[inp],
                true,
                ParamInit::ShapesOnly { sig: 7 },
            )
            .unwrap();
        g.add_output(d).unwrap();
        let n = g.node(d);
        assert!(n.params.is_empty());
        assert_eq!(n.param_bytes(), (16 * 32 + 32) * 4);
        assert_eq!(n.param_sig, 7);
        g.validate().unwrap();
    }

    #[test]
    fn rejects_bad_inputs_and_params() {
        let mut g = ModelGraph::new();
        let r = g.add_layer(
            "dangling",
            LayerKind::Add,
            &[NodeId(5), NodeId(6)],
            true,
            ParamInit::Given(vec![]),
        );
        assert!(matches!(r, Err(GraphError::BadInput { .. })));

        let inp = g.add_input("in", [4]);
        let r = g.add_layer(
            "wrong-params",
            LayerKind::Dense { in_dim: 4, out_dim: 2, act: Activation::None },
            &[inp],
            false,
            ParamInit::Given(vec![]),
        );
        assert!(matches!(r, Err(GraphError::BadParams { .. })));
    }

    #[test]
    fn trainable_bytes_exclude_frozen() {
        let g = small_graph();
        let frozen_bytes = (4 * 8 + 8) * 4;
        let head_bytes = (8 * 2 + 2) * 4;
        assert_eq!(g.params_bytes(), frozen_bytes + head_bytes);
        assert_eq!(g.trainable_params_bytes(), head_bytes);
    }

    #[test]
    fn children_adjacency() {
        let g = small_graph();
        let ch = g.children();
        assert_eq!(ch[0], vec![NodeId(1)]);
        assert_eq!(ch[1], vec![NodeId(2)]);
        assert!(ch[2].is_empty());
    }

    #[test]
    fn parameterless_layers_forced_frozen() {
        let mut g = ModelGraph::new();
        let a = g.add_input("a", [4]);
        let b = g.add_input("b", [4]);
        let add = g
            .add_layer("sum", LayerKind::Add, &[a, b], false, ParamInit::Given(vec![]))
            .unwrap();
        assert!(g.node(add).frozen);
    }
}
