//! The one way a crate declares the instruments it registers.

/// One row of an [`instruments!`](crate::instruments) table as data.
#[derive(Debug)]
pub struct Row {
    /// The registry call that makes it: `counter`, `gauge` or `span`.
    pub kind: &'static str,
    /// The name the registry renders.
    pub name: &'static str,
    /// Whether the row is a terminal connection outcome.
    pub terminal: bool,
    /// What the instrument measures, in one sentence.
    pub doc: &'static str,
}

/// The handle type a row's registry call returns.
#[doc(hidden)]
#[macro_export]
macro_rules! __instrument_handle {
    (counter) => { ::std::sync::Arc<$crate::Counter> };
    (gauge) => { ::std::sync::Arc<$crate::Gauge> };
    (span) => { $crate::SpanHandle };
}

/// For a group declared `struct Handles / Values`: the `Values` struct of
/// plain numbers, `Handles::snapshot`, and the sum of the terminal rows.
#[doc(hidden)]
#[macro_export]
macro_rules! __instrument_snapshot {
    ([] $($ignored:tt)*) => {};
    ([$Values:ident] $Handles:ident { $($field:ident $($terminal:ident)? $doc:literal,)* }) => {
        #[doc = concat!("Point-in-time values of every [`", stringify!($Handles), "`] counter.")]
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct $Values {
            $(#[doc = $doc] pub $field: u64,)*
        }

        impl $Handles {
            /// Reads every counter at once.
            pub fn snapshot(&self) -> $Values {
                $Values { $($field: self.$field.get(),)* }
            }
        }

        impl $Values {
            /// Sum of the rows marked `terminal`.
            pub(crate) fn terminal_outcomes(&self) -> u64 {
                0 $(+ if stringify!($($terminal)?).is_empty() { 0 } else { self.$field })*
            }
        }
    };
}

/// Declares a crate's instruments: a `const` holding every row as a
/// [`Row`](crate::Row), then groups of rows.
///
/// A row is the field a thread reaches the instrument through, the
/// registry call that makes it (`counter`, `gauge` or `span`), the name
/// `METRICS` prints, optionally `terminal` (a connection outcome), and one
/// sentence saying what it measures. Each group becomes a struct of
/// handles, the sentences their documentation, with a `register` that
/// resolves them all on a [`Registry`](crate::Registry); a group declared
/// `struct Handles / Values` also gets a `Values` struct of plain numbers
/// and `Handles::snapshot`. A crate that spells an instrument's name
/// anywhere but in a row can register it under two spellings, which the
/// registry's get-or-create turns into a second instrument that reads
/// zero forever.
///
/// ```
/// spamaware_metrics::instruments! {
///     /// Every row below.
///     const TABLE;
///
///     /// A cache's books.
///     struct CacheMetrics {
///         hits: counter "cache.hit" "Lookups the cache answered.",
///         size: gauge "cache.size" "Entries the cache holds.",
///     }
/// }
///
/// let registry = spamaware_metrics::Registry::with_wall_clock();
/// CacheMetrics::register(&registry).hits.inc();
/// assert_eq!(registry.counter_value("cache.hit"), Some(1));
/// assert_eq!(TABLE[1].name, "cache.size");
/// ```
#[macro_export]
macro_rules! instruments {
    (
        $(#[$table_meta:meta])*
        $table_vis:vis const $TABLE:ident;
        $(
            $(#[$group_meta:meta])*
            $vis:vis struct $Handles:ident $(/ $Values:ident)? {
                $(
                    $field:ident: $kind:ident $name:literal $($terminal:ident)? $doc:literal,
                )*
            }
        )*
    ) => {
        $(
            $(#[$group_meta])*
            $vis struct $Handles {
                $(#[doc = $doc] pub $field: $crate::__instrument_handle!($kind),)*
            }

            impl $Handles {
                /// Resolves (gets or creates) every instrument of the
                /// group on `registry`.
                pub fn register(registry: &$crate::Registry) -> $Handles {
                    $Handles { $($field: registry.$kind($name),)* }
                }
            }

            $crate::__instrument_snapshot! { [$($Values)?] $Handles { $($field $($terminal)? $doc,)* } }
        )*

        $(#[$table_meta])*
        $table_vis const $TABLE: &[$crate::Row] = &[$($($crate::Row {
            kind: stringify!($kind),
            name: $name,
            terminal: !stringify!($($terminal)?).is_empty(),
            doc: $doc,
        },)*)*];
    };
}
