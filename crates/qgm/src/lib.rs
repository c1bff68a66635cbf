//! # galo-qgm
//!
//! The Query Graph Model layer of the GALO reproduction: plan operator
//! trees ([`Qgm`], [`Pop`], [`PopKind`]) in the shape of DB2 LOLEPOP plans,
//! db2exfmt-style rendering, OPTGUIDELINES documents ([`GuidelineDoc`]) and
//! the sub-QGM segmentation used by the matching engine.

pub mod explain;
pub mod guideline;
pub mod plan;
pub mod segment;
pub mod signature;

pub use explain::{explain, ActualCards};
pub use guideline::{GuidelineDoc, GuidelineNode, GuidelineParseError};
pub use plan::{Extent, Pop, PopId, PopKind, Qgm, QgmBuilder};
pub use segment::{guideline_from_plan, segments, Segment};
pub use signature::{is_signature_op, segment_signature, shape_signature, SegmentSignature};
