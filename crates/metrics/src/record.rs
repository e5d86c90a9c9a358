//! Result records declared once: [`record!`] turns one field list — name,
//! type and how two values combine — into the struct, its `(name, value)`
//! listing for report writers and its field-wise merge, so a new counter
//! is one line here and nothing anywhere else.

/// A record field's value as report writers see it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Num {
    U64(u64),
    F64(f64),
}

/// How two values of one field combine — over the shards of one run and
/// over the jobs of one batch alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Merge {
    /// Counts add.
    Sum,
    /// Peaks and rates: the larger wins.
    Max,
    /// Not combined: the value describes one run as a whole.
    Keep,
}

impl Merge {
    pub fn fold<T: Copy + PartialOrd + std::ops::Add<Output = T>>(self, a: &mut T, b: T) {
        match self {
            Merge::Sum => *a = *a + b,
            Merge::Max if b > *a => *a = b,
            Merge::Max | Merge::Keep => {}
        }
    }
}

impl Num {
    /// [`Merge::fold`] on the payloads. Both sides are values of one
    /// field, so they are of one kind.
    pub fn fold(&mut self, other: Num, how: Merge) {
        match (self, other) {
            (Num::U64(a), Num::U64(b)) => how.fold(a, b),
            (Num::F64(a), Num::F64(b)) => how.fold(a, b),
            _ => unreachable!("one field, two numeric kinds"),
        }
    }
}

impl From<u64> for Num {
    fn from(v: u64) -> Num {
        Num::U64(v)
    }
}

impl From<usize> for Num {
    fn from(v: usize) -> Num {
        Num::U64(v as u64)
    }
}

impl From<f64> for Num {
    fn from(v: f64) -> Num {
        Num::F64(v)
    }
}

/// Declare a result record: a `pub struct` whose every field carries its
/// [`Merge`] kind in front, plus `FIELDS`, `fields()` and `absorb()` over
/// the same list in declaration order.
#[macro_export]
macro_rules! record {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$fmeta:meta])* $how:ident $field:ident: $ty:ty,)*
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[$fmeta])* pub $field: $ty,)*
        }

        impl $name {
            /// `(name, how two values combine)` of every field.
            pub const FIELDS: &'static [(&'static str, $crate::Merge)] =
                &[$((stringify!($field), $crate::Merge::$how)),*];

            /// `(name, value)` of every field.
            pub fn fields(&self) -> Vec<(&'static str, $crate::Num)> {
                vec![$((stringify!($field), $crate::Num::from(self.$field))),*]
            }

            /// Fold `other` in, each field by its declared kind.
            pub fn absorb(&mut self, other: &$name) {
                $($crate::Merge::$how.fold(&mut self.$field, other.$field);)*
            }
        }
    };
}

#[cfg(test)]
// Tests assert exact values that are exactly representable in binary floating
// point; the workspace-level float_cmp deny targets simulator arithmetic.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    record! {
        #[derive(Debug, Clone, Default, PartialEq)]
        pub struct Sample {
            Sum hits: u64,
            Max peak: usize,
            Max rate: f64,
            Keep wall_ms: f64,
        }
    }

    #[test]
    fn absorb_sums_maxes_and_keeps_by_declared_kind() {
        let mut a = Sample {
            hits: 1,
            peak: 7,
            rate: 2.5,
            wall_ms: 10.0,
        };
        a.absorb(&Sample {
            hits: 10,
            peak: 3,
            rate: 4.0,
            wall_ms: 99.0,
        });
        assert_eq!(
            a,
            Sample {
                hits: 11,
                peak: 7,
                rate: 4.0,
                wall_ms: 10.0
            }
        );
    }

    #[test]
    fn fields_list_names_and_values_in_declaration_order() {
        let s = Sample {
            hits: 1,
            peak: 2,
            rate: 0.5,
            wall_ms: 3.0,
        };
        assert_eq!(
            s.fields(),
            vec![
                ("hits", Num::U64(1)),
                ("peak", Num::U64(2)),
                ("rate", Num::F64(0.5)),
                ("wall_ms", Num::F64(3.0)),
            ]
        );
        let kinds: Vec<Merge> = Sample::FIELDS.iter().map(|f| f.1).collect();
        assert_eq!(kinds, [Merge::Sum, Merge::Max, Merge::Max, Merge::Keep]);
    }

    #[test]
    fn num_folds_like_the_typed_field() {
        let mut n = Num::U64(3);
        n.fold(Num::U64(4), Merge::Sum);
        assert_eq!(n, Num::U64(7));
        let mut x = Num::F64(1.0);
        x.fold(Num::F64(f64::NAN), Merge::Max);
        x.fold(Num::F64(0.5), Merge::Max);
        x.fold(Num::F64(9.0), Merge::Keep);
        assert_eq!(x, Num::F64(1.0));
    }
}
