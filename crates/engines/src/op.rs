//! A write as data: [`LogicalOp`], the facade's eleven mutations as one
//! enum, and its byte codec.
//!
//! Every facade write is built as a `LogicalOp` and handed to
//! [`GraphEngine::apply`](crate::facade::GraphEngine::apply), the one
//! way a write reaches an engine; `apply` answers with what the op
//! [`Created`]. The same value is what the durable wrapper journals
//! ([`LogicalOp::encode`]) and what replay decodes and applies again
//! ([`LogicalOp::decode`]), so a new write is one variant, its codec
//! arm and one `apply` arm.

use gdm_core::{EdgeId, GdmError, NodeId, PropertyMap, Result, Value};
use gdm_storage::codec;

/// What [`GraphEngine::apply`](crate::facade::GraphEngine::apply)
/// created: the new node or edge, or nothing for ops that create
/// neither.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Created {
    /// `CreateNode`'s node.
    Node(NodeId),
    /// The edge of `CreateEdge`, `CreateHyperedge` or `CreateEdgeOnEdge`.
    Edge(EdgeId),
    /// Every other op.
    Nothing,
}

impl Created {
    /// The created node. Panics when the op created none: `apply`
    /// answers a `CreateNode` with a node.
    pub(crate) fn node(self) -> NodeId {
        match self {
            Created::Node(n) => n,
            other => panic!("a node-creating op answered {other:?}"),
        }
    }

    /// The created edge. Panics when the op created none: `apply`
    /// answers an edge-creating op with an edge.
    pub(crate) fn edge(self) -> EdgeId {
        match self {
            Created::Edge(e) => e,
            other => panic!("an edge-creating op answered {other:?}"),
        }
    }
}

/// One facade write: what [`GraphEngine::apply`](crate::facade::GraphEngine::apply)
/// takes and the durable journal records.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalOp {
    /// `create_node`.
    CreateNode {
        /// Node label, when the model has them.
        label: Option<String>,
        /// Initial properties.
        props: PropertyMap,
    },
    /// `create_edge`.
    CreateEdge {
        /// Source node.
        from: NodeId,
        /// Target node.
        to: NodeId,
        /// Edge label.
        label: Option<String>,
        /// Initial properties.
        props: PropertyMap,
    },
    /// `create_hyperedge`.
    CreateHyperedge {
        /// Hyperedge label.
        label: String,
        /// Connected nodes.
        targets: Vec<NodeId>,
        /// Initial properties.
        props: PropertyMap,
    },
    /// `create_edge_on_edge`.
    CreateEdgeOnEdge {
        /// Source edge.
        from: EdgeId,
        /// Target node.
        to: NodeId,
        /// Edge label.
        label: String,
    },
    /// `set_node_attribute`.
    SetNodeAttr {
        /// The node.
        node: NodeId,
        /// Attribute name.
        key: String,
        /// New value.
        value: Value,
    },
    /// `set_edge_attribute`.
    SetEdgeAttr {
        /// The edge.
        edge: EdgeId,
        /// Attribute name.
        key: String,
        /// New value.
        value: Value,
    },
    /// `delete_node`.
    DeleteNode {
        /// The node.
        node: NodeId,
    },
    /// `delete_edge`.
    DeleteEdge {
        /// The edge.
        edge: EdgeId,
    },
    /// `execute_ddl`.
    Ddl {
        /// Statement text.
        statement: String,
    },
    /// `execute_dml`.
    Dml {
        /// Statement text.
        statement: String,
    },
    /// `create_index`.
    CreateIndex {
        /// Indexed property name.
        property: String,
    },
}

const OP_CREATE_NODE: u8 = 1;
const OP_CREATE_EDGE: u8 = 2;
const OP_CREATE_HYPEREDGE: u8 = 3;
const OP_CREATE_EDGE_ON_EDGE: u8 = 4;
const OP_SET_NODE_ATTR: u8 = 5;
const OP_SET_EDGE_ATTR: u8 = 6;
const OP_DELETE_NODE: u8 = 7;
const OP_DELETE_EDGE: u8 = 8;
const OP_DDL: u8 = 9;
const OP_DML: u8 = 10;
const OP_CREATE_INDEX: u8 = 11;

fn put_str(out: &mut Vec<u8>, s: &str) {
    codec::put_bytes(out, s.as_bytes());
}

fn get_str(buf: &[u8], pos: &mut usize) -> Result<String> {
    let bytes = codec::get_bytes(buf, pos)?;
    String::from_utf8(bytes.to_vec())
        .map_err(|_| GdmError::Storage("non-UTF-8 string in journal".into()))
}

fn put_opt_str(out: &mut Vec<u8>, s: &Option<String>) {
    match s {
        Some(s) => {
            out.push(1);
            put_str(out, s);
        }
        None => out.push(0),
    }
}

fn get_opt_str(buf: &[u8], pos: &mut usize) -> Result<Option<String>> {
    let flag = *buf
        .get(*pos)
        .ok_or_else(|| GdmError::Storage("journal op truncated".into()))?;
    *pos += 1;
    Ok(match flag {
        0 => None,
        _ => Some(get_str(buf, pos)?),
    })
}

fn put_props(out: &mut Vec<u8>, props: &PropertyMap) {
    codec::put_varint(out, props.len() as u64);
    for (k, v) in props.iter() {
        put_str(out, k);
        codec::encode_value(out, v);
    }
}

fn get_props(buf: &[u8], pos: &mut usize) -> Result<PropertyMap> {
    let count = codec::get_varint(buf, pos)?;
    let mut props = PropertyMap::new();
    for _ in 0..count {
        let k = get_str(buf, pos)?;
        let v = codec::decode_value(buf, pos)?;
        props.set(k, v);
    }
    Ok(props)
}

impl LogicalOp {
    /// Encodes the operation for the journal.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            LogicalOp::CreateNode { label, props } => {
                out.push(OP_CREATE_NODE);
                put_opt_str(&mut out, label);
                put_props(&mut out, props);
            }
            LogicalOp::CreateEdge {
                from,
                to,
                label,
                props,
            } => {
                out.push(OP_CREATE_EDGE);
                codec::put_varint(&mut out, from.raw());
                codec::put_varint(&mut out, to.raw());
                put_opt_str(&mut out, label);
                put_props(&mut out, props);
            }
            LogicalOp::CreateHyperedge {
                label,
                targets,
                props,
            } => {
                out.push(OP_CREATE_HYPEREDGE);
                put_str(&mut out, label);
                codec::put_varint(&mut out, targets.len() as u64);
                for t in targets {
                    codec::put_varint(&mut out, t.raw());
                }
                put_props(&mut out, props);
            }
            LogicalOp::CreateEdgeOnEdge { from, to, label } => {
                out.push(OP_CREATE_EDGE_ON_EDGE);
                codec::put_varint(&mut out, from.raw());
                codec::put_varint(&mut out, to.raw());
                put_str(&mut out, label);
            }
            LogicalOp::SetNodeAttr { node, key, value } => {
                out.push(OP_SET_NODE_ATTR);
                codec::put_varint(&mut out, node.raw());
                put_str(&mut out, key);
                codec::encode_value(&mut out, value);
            }
            LogicalOp::SetEdgeAttr { edge, key, value } => {
                out.push(OP_SET_EDGE_ATTR);
                codec::put_varint(&mut out, edge.raw());
                put_str(&mut out, key);
                codec::encode_value(&mut out, value);
            }
            LogicalOp::DeleteNode { node } => {
                out.push(OP_DELETE_NODE);
                codec::put_varint(&mut out, node.raw());
            }
            LogicalOp::DeleteEdge { edge } => {
                out.push(OP_DELETE_EDGE);
                codec::put_varint(&mut out, edge.raw());
            }
            LogicalOp::Ddl { statement } => {
                out.push(OP_DDL);
                put_str(&mut out, statement);
            }
            LogicalOp::Dml { statement } => {
                out.push(OP_DML);
                put_str(&mut out, statement);
            }
            LogicalOp::CreateIndex { property } => {
                out.push(OP_CREATE_INDEX);
                put_str(&mut out, property);
            }
        }
        out
    }

    /// Decodes an operation written by [`LogicalOp::encode`].
    pub fn decode(buf: &[u8]) -> Result<LogicalOp> {
        let mut pos = 0usize;
        let tag = *buf
            .first()
            .ok_or_else(|| GdmError::Storage("empty journal op".into()))?;
        pos += 1;
        let op = match tag {
            OP_CREATE_NODE => LogicalOp::CreateNode {
                label: get_opt_str(buf, &mut pos)?,
                props: get_props(buf, &mut pos)?,
            },
            OP_CREATE_EDGE => LogicalOp::CreateEdge {
                from: NodeId(codec::get_varint(buf, &mut pos)?),
                to: NodeId(codec::get_varint(buf, &mut pos)?),
                label: get_opt_str(buf, &mut pos)?,
                props: get_props(buf, &mut pos)?,
            },
            OP_CREATE_HYPEREDGE => {
                let label = get_str(buf, &mut pos)?;
                let count = codec::get_varint(buf, &mut pos)?;
                let mut targets = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    targets.push(NodeId(codec::get_varint(buf, &mut pos)?));
                }
                LogicalOp::CreateHyperedge {
                    label,
                    targets,
                    props: get_props(buf, &mut pos)?,
                }
            }
            OP_CREATE_EDGE_ON_EDGE => LogicalOp::CreateEdgeOnEdge {
                from: EdgeId(codec::get_varint(buf, &mut pos)?),
                to: NodeId(codec::get_varint(buf, &mut pos)?),
                label: get_str(buf, &mut pos)?,
            },
            OP_SET_NODE_ATTR => LogicalOp::SetNodeAttr {
                node: NodeId(codec::get_varint(buf, &mut pos)?),
                key: get_str(buf, &mut pos)?,
                value: codec::decode_value(buf, &mut pos)?,
            },
            OP_SET_EDGE_ATTR => LogicalOp::SetEdgeAttr {
                edge: EdgeId(codec::get_varint(buf, &mut pos)?),
                key: get_str(buf, &mut pos)?,
                value: codec::decode_value(buf, &mut pos)?,
            },
            OP_DELETE_NODE => LogicalOp::DeleteNode {
                node: NodeId(codec::get_varint(buf, &mut pos)?),
            },
            OP_DELETE_EDGE => LogicalOp::DeleteEdge {
                edge: EdgeId(codec::get_varint(buf, &mut pos)?),
            },
            OP_DDL => LogicalOp::Ddl {
                statement: get_str(buf, &mut pos)?,
            },
            OP_DML => LogicalOp::Dml {
                statement: get_str(buf, &mut pos)?,
            },
            OP_CREATE_INDEX => LogicalOp::CreateIndex {
                property: get_str(buf, &mut pos)?,
            },
            other => return Err(GdmError::Storage(format!("unknown journal op tag {other}"))),
        };
        if pos != buf.len() {
            return Err(GdmError::Storage("trailing bytes after journal op".into()));
        }
        Ok(op)
    }
}
