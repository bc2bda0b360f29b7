//! Offline stand-in: the two entry points the workspace names; both fail.

#[derive(Debug)]
pub struct Error;

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("serde_json stub")
    }
}

pub fn to_string<T: ?Sized>(_value: &T) -> Result<String, Error> {
    Err(Error)
}

pub fn from_str<T>(_s: &str) -> Result<T, Error> {
    Err(Error)
}
