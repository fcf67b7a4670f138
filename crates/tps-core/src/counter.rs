//! The counter-table macro: one declaration per group of `u64` counters.

/// Declares a group of `u64` counters once and derives its bookkeeping.
///
/// Takes a struct in its ordinary syntax (attributes, doc comments, `pub`
/// fields, all of type `u64`) and emits the struct unchanged plus:
///
/// * `FIELDS`: the field names, in declaration order;
/// * `values()`: the field values, in the same order;
/// * `from_values(..)`: the constructor from those values;
/// * `accumulate(&mut self, delta)`: a field-wise sum.
///
/// Journals and reports write counters in `FIELDS` order, so adding a
/// counter is one row here and nowhere else.
///
/// # Example
///
/// ```
/// tps_core::counter_table! {
///     /// Two counters.
///     #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
///     pub struct Hits {
///         /// Hits.
///         pub hits: u64,
///         /// Misses.
///         pub misses: u64,
///     }
/// }
///
/// let mut total = Hits::from_values([1, 2]);
/// total.accumulate(&Hits { hits: 10, misses: 20 });
/// assert_eq!(Hits::FIELDS, ["hits", "misses"]);
/// assert_eq!(total.values(), [11, 22]);
/// ```
#[macro_export]
macro_rules! counter_table {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $(
                $(#[$field_meta:meta])*
                pub $field:ident: u64
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $(
                $(#[$field_meta])*
                pub $field: u64,
            )*
        }

        impl $name {
            /// The counter names, in declaration order.
            pub const FIELDS: [&'static str; [$(stringify!($field)),*].len()] =
                [$(stringify!($field)),*];

            /// The counter values, in [`Self::FIELDS`] order.
            pub fn values(&self) -> [u64; $name::FIELDS.len()] {
                [$(self.$field),*]
            }

            /// Builds the counters from values in [`Self::FIELDS`] order.
            pub fn from_values(values: [u64; $name::FIELDS.len()]) -> Self {
                let [$($field),*] = values;
                $name { $($field),* }
            }

            /// Adds `delta` into this counter set, field by field.
            pub fn accumulate(&mut self, delta: &Self) {
                $(self.$field += delta.$field;)*
            }
        }
    };
}
