//! The unified `GxB_set` / `GxB_get` option surface (SuiteSparse-style
//! extension, the paper's §VI "implementation-defined descriptor and
//! option" latitude).
//!
//! One pair of entry points covers every runtime-tunable knob of this
//! binding, scoped the way the SuiteSparse extension scopes them:
//!
//! * [`GxbScope::Global`] — session-wide storage-engine knobs: the
//!   delta-log run cap and the background flush window.
//! * [`GxbScope::Matrix`] — per-object storage control: the tile grid
//!   (set converts the stored value immediately), and the read-epoch
//!   probe. New matrices start as one CSR slab; tiling is the only
//!   storage choice, and it is made per matrix.
//! * [`GxbScope::Vector`] — the read-epoch probe (vectors have a single
//!   sparse layout, so the tiling option does not apply).
//!
//! This is the one public path to the session storage knobs (the
//! `GRB_*` environment variables only seed their defaults) and the
//! **only** path to the tiling knob: there is deliberately no
//! environment variable and no separate `set_tile_shape` method on the
//! handle.
//!
//! ```
//! use graphblas_capi as capi;
//! use capi::{gxb_get, gxb_set, GxbOption, GxbScope, GxbValue, Mode};
//!
//! capi::with_session(Mode::Blocking, || {
//!     let m = capi::GrbMatrix::new(capi::GrbType::Int32, 100, 100).unwrap();
//!     // shard into a 4x4 tile grid
//!     gxb_set(
//!         GxbScope::Matrix(&m),
//!         GxbOption::TileShape,
//!         GxbValue::TileShape(Some((4, 4))),
//!     )
//!     .unwrap();
//!     assert_eq!(
//!         gxb_get(GxbScope::Matrix(&m), GxbOption::TileShape).unwrap(),
//!         GxbValue::TileShape(Some((4, 4))),
//!     );
//! })
//! .unwrap();
//! ```

use graphblas_core::error::{Error, Result};
use graphblas_core::options;

use crate::collections::{GrbMatrix, GrbVector, MatLane};

/// What a [`gxb_set`]/[`gxb_get`] call applies to: the session, one
/// matrix, or one vector.
#[derive(Debug, Clone, Copy)]
pub enum GxbScope<'a> {
    /// Session-wide defaults and storage-engine knobs.
    Global,
    /// One matrix handle's storage options.
    Matrix(&'a GrbMatrix),
    /// One vector handle's options.
    Vector(&'a GrbVector),
}

impl GxbScope<'_> {
    fn name(&self) -> &'static str {
        match self {
            GxbScope::Global => "Global",
            GxbScope::Matrix(_) => "Matrix",
            GxbScope::Vector(_) => "Vector",
        }
    }
}

/// The option field being set or read (the SuiteSparse `GxB_Option_Field`
/// analog).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GxbOption {
    /// The 2D tile grid (matrix). `TileShape(Some((r, c)))` shards the
    /// matrix into an `r × c` grid of CSR tiles whose empty tiles hold
    /// no storage, converting the stored value immediately; each axis
    /// must be in `1..=MAX_TILE_GRID_AXIS` (64). `TileShape(None)` clears
    /// tiling back to one CSR slab.
    TileShape,
    /// The pending-update tail-seal cap (global). `Count(None)` restores
    /// auto (`GRB_DELTA_RUN_CAP`, then the engine default).
    DeltaRunCap,
    /// The background auto-flush time window in milliseconds (global).
    /// `Millis(Some(0))` disables the time trigger; `Millis(None)`
    /// restores auto.
    FlushWindowMs,
    /// Get-only: the delta epoch a snapshot taken now would pin.
    ReadEpoch,
}

/// A typed option value (the `void *` of the C extension, made honest).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GxbValue {
    /// A tile grid, or `None` for "not tiled".
    TileShape(Option<(usize, usize)>),
    /// A positive count, or `None` for "auto".
    Count(Option<usize>),
    /// A millisecond window, or `None` for "auto".
    Millis(Option<u64>),
    /// A read epoch.
    Epoch(u64),
}

fn unsupported(scope: &GxbScope, option: GxbOption, verb: &str) -> Error {
    Error::InvalidValue(format!(
        "GxB_{verb}: option {option:?} is not supported at {} scope",
        scope.name()
    ))
}

fn type_mismatch(option: GxbOption, value: &GxbValue) -> Error {
    Error::InvalidValue(format!(
        "GxB_set: option {option:?} cannot take value {value:?}"
    ))
}

/// `GxB_set(scope, option, value)`: write one option. See the
/// [module docs](self) for the supported (scope, option) pairs.
pub fn gxb_set(scope: GxbScope, option: GxbOption, value: GxbValue) -> Result<()> {
    match (&scope, option) {
        (GxbScope::Global, GxbOption::DeltaRunCap) => match value {
            GxbValue::Count(Some(0)) => Err(Error::InvalidValue(
                "GxB_set(DeltaRunCap): cap must be >= 1 (None means auto)".into(),
            )),
            GxbValue::Count(cap) => {
                options::set_run_cap(cap);
                Ok(())
            }
            v => Err(type_mismatch(option, &v)),
        },
        (GxbScope::Global, GxbOption::FlushWindowMs) => match value {
            GxbValue::Millis(ms) => {
                options::set_flush_window_ms(ms);
                Ok(())
            }
            v => Err(type_mismatch(option, &v)),
        },
        (GxbScope::Matrix(m), GxbOption::TileShape) => match value {
            GxbValue::TileShape(Some((r, c))) => {
                lane!(MatLane, &m.m, x: T => x.set_tile_shape(r, c))
            }
            GxbValue::TileShape(None) => lane!(MatLane, &m.m, x: T => x.clear_tile_shape()),
            v => Err(type_mismatch(option, &v)),
        },
        _ => Err(unsupported(&scope, option, "set")),
    }
}

/// `GxB_get(scope, option)`: read one option back. Every settable pair
/// reads back what was set; [`GxbOption::ReadEpoch`] is additionally
/// readable on matrix and vector scopes.
pub fn gxb_get(scope: GxbScope, option: GxbOption) -> Result<GxbValue> {
    match (&scope, option) {
        (GxbScope::Global, GxbOption::DeltaRunCap) => {
            Ok(GxbValue::Count(options::session_run_cap()))
        }
        (GxbScope::Global, GxbOption::FlushWindowMs) => {
            Ok(GxbValue::Millis(options::session_flush_window_ms()))
        }
        (GxbScope::Matrix(m), GxbOption::TileShape) => Ok(GxbValue::TileShape(
            lane!(MatLane, &m.m, x: T => x.tile_shape()),
        )),
        (GxbScope::Matrix(m), GxbOption::ReadEpoch) => Ok(GxbValue::Epoch(m.read_epoch())),
        (GxbScope::Vector(v), GxbOption::ReadEpoch) => Ok(GxbValue::Epoch(v.read_epoch())),
        _ => Err(unsupported(&scope, option, "get")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::with_session;
    use crate::value::{GrbType, Value};
    use graphblas_core::exec::{take_notes, Mode};

    #[test]
    fn global_knobs_round_trip_and_reset_on_finalize() {
        with_session(Mode::Blocking, || {
            gxb_set(
                GxbScope::Global,
                GxbOption::DeltaRunCap,
                GxbValue::Count(Some(17)),
            )
            .unwrap();
            assert_eq!(
                gxb_get(GxbScope::Global, GxbOption::DeltaRunCap).unwrap(),
                GxbValue::Count(Some(17))
            );
            gxb_set(
                GxbScope::Global,
                GxbOption::FlushWindowMs,
                GxbValue::Millis(Some(25)),
            )
            .unwrap();
            assert_eq!(
                gxb_get(GxbScope::Global, GxbOption::FlushWindowMs).unwrap(),
                GxbValue::Millis(Some(25))
            );
            // new matrices start as one slab
            let m = GrbMatrix::new(GrbType::Int32, 10, 10).unwrap();
            assert_eq!(
                gxb_get(GxbScope::Matrix(&m), GxbOption::TileShape).unwrap(),
                GxbValue::TileShape(None)
            );
        })
        .unwrap();
        // finalize restored every global to auto
        crate::context::with_no_session(|| {
            assert_eq!(
                gxb_get(GxbScope::Global, GxbOption::DeltaRunCap).unwrap(),
                GxbValue::Count(None)
            );
            assert_eq!(
                gxb_get(GxbScope::Global, GxbOption::FlushWindowMs).unwrap(),
                GxbValue::Millis(None)
            );
        })
        .unwrap();
    }

    #[test]
    fn matrix_tile_shape_set_converts_and_clears() {
        with_session(Mode::Blocking, || {
            let m = GrbMatrix::new(GrbType::Int32, 40, 40).unwrap();
            for i in 0..40 {
                m.set(i, (i * 7) % 40, Value::Int32(i as i32)).unwrap();
            }
            gxb_set(
                GxbScope::Matrix(&m),
                GxbOption::TileShape,
                GxbValue::TileShape(Some((4, 4))),
            )
            .unwrap();
            assert_eq!(
                gxb_get(GxbScope::Matrix(&m), GxbOption::TileShape).unwrap(),
                GxbValue::TileShape(Some((4, 4)))
            );
            assert_eq!(m.nvals().unwrap(), 40);
            assert_eq!(m.get(7, 9).unwrap(), Some(Value::Int32(7)));
            // the stored value is a grid: a point write flushes per tile
            take_notes();
            m.set(0, 1, Value::Int32(-1)).unwrap();
            assert_eq!(m.nvals().unwrap(), 41);
            assert!(!take_notes().tiles.is_empty());
            gxb_set(
                GxbScope::Matrix(&m),
                GxbOption::TileShape,
                GxbValue::TileShape(None),
            )
            .unwrap();
            assert_eq!(
                gxb_get(GxbScope::Matrix(&m), GxbOption::TileShape).unwrap(),
                GxbValue::TileShape(None)
            );
            m.set(0, 2, Value::Int32(-2)).unwrap();
            assert_eq!(m.nvals().unwrap(), 42);
            assert!(
                take_notes().tiles.is_empty(),
                "a slab flush touches no tile"
            );
        })
        .unwrap();
    }

    #[test]
    fn invalid_pairs_and_values_are_rejected() {
        with_session(Mode::Blocking, || {
            let m = GrbMatrix::new(GrbType::Int32, 4, 4).unwrap();
            let v = GrbVector::new(GrbType::Int32, 4).unwrap();
            // tiling is per matrix: neither vectors nor the session take it
            for scope in [GxbScope::Vector(&v), GxbScope::Global] {
                assert!(gxb_set(
                    scope,
                    GxbOption::TileShape,
                    GxbValue::TileShape(Some((2, 2)))
                )
                .is_err());
                assert!(gxb_get(scope, GxbOption::TileShape).is_err());
            }
            // read-epoch is get-only
            assert!(gxb_set(
                GxbScope::Matrix(&m),
                GxbOption::ReadEpoch,
                GxbValue::Epoch(0)
            )
            .is_err());
            // wrong value type for the option
            assert!(gxb_set(
                GxbScope::Matrix(&m),
                GxbOption::TileShape,
                GxbValue::Count(Some(1))
            )
            .is_err());
            // zero-sized grids, grid axes past 64 and zero caps are
            // invalid, and change nothing
            for grid in [(0, 2), (1, 65)] {
                assert!(matches!(
                    gxb_set(
                        GxbScope::Matrix(&m),
                        GxbOption::TileShape,
                        GxbValue::TileShape(Some(grid))
                    ),
                    Err(Error::InvalidValue(_))
                ));
                assert_eq!(
                    gxb_get(GxbScope::Matrix(&m), GxbOption::TileShape).unwrap(),
                    GxbValue::TileShape(None),
                    "{grid:?}"
                );
            }
            assert!(gxb_set(
                GxbScope::Global,
                GxbOption::DeltaRunCap,
                GxbValue::Count(Some(0))
            )
            .is_err());
            // vector read-epoch works
            assert!(matches!(
                gxb_get(GxbScope::Vector(&v), GxbOption::ReadEpoch),
                Ok(GxbValue::Epoch(_))
            ));
        })
        .unwrap();
    }
}
